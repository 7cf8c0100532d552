package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster/internal/dataset"
	"bwcluster/internal/fleet"
)

// soakCounters aggregates workload outcomes across workers.
type soakCounters struct {
	done      atomic.Int64 // requests completed (any outcome)
	ok        atomic.Int64 // 2xx
	shed      atomic.Int64 // 429 from admission control
	client4xx atomic.Int64 // other 4xx
	fiveXX    atomic.Int64 // 5xx — the failover budget
	netErr    atomic.Int64 // transport-level failures
	hits      atomic.Int64 // X-Fleet-Cache: hit
	fallbacks atomic.Int64 // X-Fleet-Fallback set (decentral answered centrally)
}

// soakSummary is the end-of-run summary the soak prints as JSON.
type soakSummary struct {
	Queries   int64   `json:"queries"`
	Shards    int     `json:"shards"`
	Hosts     int     `json:"hosts"`
	Workers   int     `json:"workers"`
	ZipfS     float64 `json:"zipfS"`
	Seconds   float64 `json:"seconds"`
	QPS       float64 `json:"qps"`
	P50Micros int64   `json:"p50us"`
	P90Micros int64   `json:"p90us"`
	P99Micros int64   `json:"p99us"`
	MaxMicros int64   `json:"maxUs"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`
	Client4xx int64   `json:"client4xx"`
	FiveXX    int64   `json:"fiveXX"`
	NetErr    int64   `json:"netErr"`
	CacheHits int64   `json:"cacheHits"`
	Fallbacks int64   `json:"fallbacks"`
	Killed    bool    `json:"replicaKilled"`
}

// soakQuery is one entry of the workload universe the zipf generator
// draws from: zipf's head makes a few of these hot (exercising the
// cache), its tail keeps misses flowing (exercising the proxy path).
type soakQuery struct {
	k     int
	b     float64
	mode  string
	start int
}

func runSoak(args []string) error {
	fs := flag.NewFlagSet("bwc-fleet -mode soak", flag.ContinueOnError)
	shards := fs.Int("shards", 3, "shard process count")
	hosts := fs.Int("hosts", 64, "synthetic dataset size")
	queries := fs.Int64("queries", 1_000_000, "total queries to drive")
	workers := fs.Int("workers", 32, "concurrent workload workers")
	zipfS := fs.Float64("zipf", 1.2, "zipf skew s (>1; larger = hotter head)")
	seed := fs.Int64("seed", 1, "dataset/workload seed")
	nCut := fs.Int("ncut", 10, "overlay propagation cutoff n_cut")
	tick := fs.Duration("tick", 0, "shard async runtime gossip period (0: default)")
	killAt := fs.Float64("kill-at", 0.5, "kill one replica after this fraction of the workload (0: never)")
	series := fs.String("series", "", "write a time-series of throughput/latency/shed/hit samples to this file")
	rate := fs.Float64("rate", 0, "per-tenant admission rate (0: unlimited sized to the workload)")
	startupTimeout := fs.Duration("startup-timeout", 3*time.Minute, "deadline for every shard to report ready")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	if *zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1")
	}

	// Synthesize the dataset the builder shard will load.
	m, err := dataset.Generate(dataset.HPConfig().WithN(*hosts), rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "bwc-fleet-soak")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dataPath := filepath.Join(dir, "soak.gob")
	if err := dataset.SaveFile(dataPath, m); err != nil {
		return err
	}

	// Spawn the shard processes: shard 0 builds, the rest replicate.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type child struct {
		cmd      *exec.Cmd
		stdin    io.WriteCloser
		httpAddr string
		peerAddr string
	}
	children := make([]*child, *shards)
	defer func() {
		for _, c := range children {
			if c != nil && c.cmd.Process != nil {
				_ = c.cmd.Process.Kill()
			}
		}
		for _, c := range children {
			if c != nil {
				_ = c.cmd.Wait()
			}
		}
	}()
	for i := range children {
		cargs := []string{"-mode", "shard",
			"-index", fmt.Sprint(i), "-shards", fmt.Sprint(*shards),
			"-addr", "127.0.0.1:0", "-peer", "127.0.0.1:0",
			"-ncut", fmt.Sprint(*nCut), "-seed", fmt.Sprint(*seed), "-quiet"}
		if *tick > 0 {
			cargs = append(cargs, "-tick", tick.String())
		}
		if i == 0 {
			cargs = append(cargs, "-data", dataPath)
		}
		cmd := exec.Command(self, cargs...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		c := &child{cmd: cmd, stdin: stdin}
		children[i] = c
		// The first stdout line is "READY <httpAddr> <peerAddr>".
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			return fmt.Errorf("shard %d: reading READY line: %w", i, err)
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "READY" {
			return fmt.Errorf("shard %d: unexpected startup line %q", i, strings.TrimSpace(line))
		}
		c.httpAddr, c.peerAddr = f[1], f[2]
		// Drain the rest of the child's stdout (it prints nothing else);
		// exits on EOF when the child dies.
		go func() { _, _ = io.Copy(io.Discard, stdout) }()
	}

	// Broadcast the peer routes; the builder starts building on receipt.
	peers := make([]string, *shards)
	shardURLs := make([]string, *shards)
	for i, c := range children {
		peers[i] = c.peerAddr
		shardURLs[i] = "http://" + c.httpAddr
	}
	routesLine := "ROUTES " + strings.Join(peers, ",") + "\n"
	for i, c := range children {
		if _, err := io.WriteString(c.stdin, routesLine); err != nil {
			return fmt.Errorf("shard %d: sending routes: %w", i, err)
		}
	}

	// Wait until the whole fleet (builder built, replicas restored) is up.
	httpc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * *workers,
			MaxIdleConnsPerHost: 2 * *workers,
		},
	}
	deadline := time.Now().Add(*startupTimeout)
	for i, url := range shardURLs {
		for {
			resp, err := httpc.Get(url + "/v1/ready")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if ok {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d (%s) not ready after %v", i, url, *startupTimeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("fleet up: %d shards ready (%s)\n", *shards, strings.Join(shardURLs, " "))

	// The router runs in this process, on a real listener.
	admission := fleet.AdmissionConfig{Rate: *rate}
	if *rate <= 0 {
		// Unlimited-ish: the soak measures serving, not shedding; shed
		// behaviour has its own unit tests and the -rate flag.
		admission = fleet.AdmissionConfig{Rate: 1e9, Queue: 1 << 20}
	}
	rt := fleet.NewRouter(fleet.RouterConfig{
		Shards:        shardURLs,
		Logger:        newLogger(true),
		Admission:     admission,
		ProbeInterval: 100 * time.Millisecond,
		Client:        httpc,
	})
	rt.Start()
	defer rt.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	routerSrv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	routerErr := make(chan error, 1)
	go func() { routerErr <- routerSrv.Serve(ln) }()
	defer routerSrv.Close()
	routerURL := "http://" + ln.Addr().String()

	// Hold the workload until the router's probe loop has seen every
	// shard: before that its observed epoch is unset and decentral
	// queries would transiently fall back to central rewrites.
	for {
		var ready struct {
			ShardsReady int `json:"shardsReady"`
		}
		resp, err := httpc.Get(routerURL + "/v1/ready")
		if err == nil {
			decErr := json.NewDecoder(resp.Body).Decode(&ready)
			resp.Body.Close()
			if decErr == nil && ready.ShardsReady == *shards {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never saw all %d shards ready after %v", *shards, *startupTimeout)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Workload universe: every (start, k, b) combination, deterministically
	// shuffled so zipf's hot head is a representative mix, ~30% of it
	// decentralized.
	rng := rand.New(rand.NewSource(*seed + 1))
	var universe []soakQuery
	for start := 0; start < *hosts; start++ {
		for _, k := range []int{3, 4, 5, 6} {
			for _, b := range []float64{12, 18, 25} {
				mode := "central"
				if rng.Intn(10) < 3 {
					mode = "decentral"
				}
				universe = append(universe, soakQuery{k: k, b: b, mode: mode, start: start})
			}
		}
	}
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })

	var ctr soakCounters
	issued := atomic.Int64{}
	killThreshold := int64(0)
	if *killAt > 0 && *shards > 1 {
		killThreshold = int64(*killAt * float64(*queries))
	}
	var killOnce sync.Once
	killed := atomic.Bool{}
	latencies := make([][]uint32, *workers)

	// Time-series sampler: one line per second with cumulative counters.
	var seriesFile *os.File
	seriesDone := make(chan struct{})
	if *series != "" {
		if err := os.MkdirAll(filepath.Dir(*series), 0o755); err != nil {
			return err
		}
		seriesFile, err = os.Create(*series)
		if err != nil {
			return err
		}
		defer seriesFile.Close()
		fmt.Fprintf(seriesFile, "# bwc-fleet soak: shards=%d hosts=%d queries=%d workers=%d zipf=%.2f seed=%d\n",
			*shards, *hosts, *queries, *workers, *zipfS, *seed)
		fmt.Fprintln(seriesFile, "# sec done ok hits shed fiveXX netErr fallbacks killed")
	}
	soakStart := time.Now()
	go func() {
		defer close(seriesDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			<-tick.C
			d := ctr.done.Load()
			if seriesFile != nil {
				fmt.Fprintf(seriesFile, "%.0f %d %d %d %d %d %d %d %v\n",
					time.Since(soakStart).Seconds(), d, ctr.ok.Load(), ctr.hits.Load(),
					ctr.shed.Load(), ctr.fiveXX.Load(), ctr.netErr.Load(),
					ctr.fallbacks.Load(), killed.Load())
			}
			if d >= *queries {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		lat := make([]uint32, 0, int(*queries/int64(*workers))+1)
		latencies[w] = lat
		go func(w int) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(*seed + 100 + int64(w)))
			zipf := rand.NewZipf(wr, *zipfS, 1, uint64(len(universe)-1))
			for {
				n := issued.Add(1)
				if n > *queries {
					return
				}
				if killThreshold > 0 && n == killThreshold {
					killOnce.Do(func() {
						victim := children[*shards-1]
						fmt.Printf("killing replica shard %d (%s) at query %d\n", *shards-1, victim.httpAddr, n)
						_ = victim.cmd.Process.Kill()
						killed.Store(true)
					})
				}
				q := universe[zipf.Uint64()]
				url := fmt.Sprintf("%s/v1/cluster?k=%d&b=%g", routerURL, q.k, q.b)
				if q.mode == "decentral" {
					url += fmt.Sprintf("&mode=decentral&start=%d", q.start)
				}
				t0 := time.Now()
				resp, err := httpc.Get(url)
				el := time.Since(t0).Microseconds()
				if el > int64(^uint32(0)) {
					el = int64(^uint32(0))
				}
				latencies[w] = append(latencies[w], uint32(el))
				ctr.done.Add(1)
				if err != nil {
					ctr.netErr.Add(1)
					continue
				}
				if resp.Header.Get("X-Fleet-Cache") == "hit" {
					ctr.hits.Add(1)
				}
				if resp.Header.Get("X-Fleet-Fallback") != "" {
					ctr.fallbacks.Add(1)
				}
				switch {
				case resp.StatusCode < 300:
					ctr.ok.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					ctr.shed.Add(1)
				case resp.StatusCode >= 500:
					ctr.fiveXX.Add(1)
				default:
					// 4xx fails the run; name the first few so the
					// failure is diagnosable from the log alone.
					if n := ctr.client4xx.Add(1); n <= 3 {
						body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
						fmt.Printf("unexpected %d from %s: %s\n", resp.StatusCode, url, body)
					}
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(soakStart)
	<-seriesDone

	// Merge and rank the latency samples.
	var all []uint32
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return int64(all[i])
	}
	sum := soakSummary{
		Queries: ctr.done.Load(), Shards: *shards, Hosts: *hosts,
		Workers: *workers, ZipfS: *zipfS,
		Seconds: elapsed.Seconds(), QPS: float64(ctr.done.Load()) / elapsed.Seconds(),
		P50Micros: pct(0.50), P90Micros: pct(0.90), P99Micros: pct(0.99),
		MaxMicros: pct(1.0),
		OK:        ctr.ok.Load(), Shed: ctr.shed.Load(), Client4xx: ctr.client4xx.Load(),
		FiveXX: ctr.fiveXX.Load(), NetErr: ctr.netErr.Load(),
		CacheHits: ctr.hits.Load(), Fallbacks: ctr.fallbacks.Load(),
		Killed: killed.Load(),
	}
	out, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Printf("soak summary:\n%s\n", out)

	// The soak's own gate: the fleet must have served the workload, and
	// a killed replica must not have produced a 5xx burst beyond the
	// in-flight drain (the router fails over within a request, so the
	// budget is a small fraction, not a window of downtime).
	budget := sum.Queries / 1000
	if budget < 5 {
		budget = 5
	}
	if sum.OK == 0 {
		return fmt.Errorf("soak served no queries")
	}
	if sum.FiveXX+sum.NetErr > budget {
		return fmt.Errorf("soak failed: %d 5xx + %d transport errors exceed the drain budget of %d",
			sum.FiveXX, sum.NetErr, budget)
	}
	if sum.Client4xx > 0 {
		return fmt.Errorf("soak failed: %d unexpected 4xx responses (malformed workload or misrouted decentral query)", sum.Client4xx)
	}
	// The federated bandwidth rollup must cover every surviving shard
	// process and report the killed replica as an explicit gap, with
	// consistent epochs and real accounted traffic across the fleet.
	if err := checkFleetBandwidth(httpc, routerURL, *shards, killed.Load()); err != nil {
		return fmt.Errorf("soak failed: %w", err)
	}
	fmt.Printf("soak PASS: %d queries in %.1fs (%.0f qps), p50=%dus p99=%dus, %d cache hits, %d shed, %d 5xx\n",
		sum.Queries, sum.Seconds, sum.QPS, sum.P50Micros, sum.P99Micros, sum.CacheHits, sum.Shed, sum.FiveXX)
	return nil
}

// checkFleetBandwidth fetches the router's /v1/fleet/bandwidth rollup
// and verifies the merged view: every live shard contributes a ledger
// snapshot, a killed replica appears as a gap rather than a silent
// shrink, epochs agree across the covered shards, and the cross-shard
// aggregate accounts the overlay traffic the workload generated.
func checkFleetBandwidth(httpc *http.Client, routerURL string, shards int, killed bool) error {
	resp, err := httpc.Get(routerURL + "/v1/fleet/bandwidth")
	if err != nil {
		return fmt.Errorf("fleet bandwidth rollup: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Shards          []json.RawMessage `json:"shards"`
		ShardsCovered   int               `json:"shardsCovered"`
		Gaps            []int             `json:"gaps"`
		EpochConsistent bool              `json:"epochConsistent"`
		Aggregate       struct {
			TotalBytes    int64 `json:"totalBytes"`
			TotalMessages int64 `json:"totalMessages"`
		} `json:"aggregate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("fleet bandwidth rollup: decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet bandwidth rollup: status %d", resp.StatusCode)
	}
	if len(body.Shards) != shards {
		return fmt.Errorf("fleet bandwidth rollup lists %d shards, want %d", len(body.Shards), shards)
	}
	wantCovered := shards
	if killed {
		wantCovered = shards - 1
	}
	if body.ShardsCovered < wantCovered {
		return fmt.Errorf("fleet bandwidth rollup covered %d shards, want >= %d (gaps %v)",
			body.ShardsCovered, wantCovered, body.Gaps)
	}
	if killed && len(body.Gaps) == 0 {
		return fmt.Errorf("killed replica missing from the rollup's gap list")
	}
	if !body.EpochConsistent {
		return fmt.Errorf("fleet bandwidth rollup saw inconsistent epochs across shards")
	}
	if body.Aggregate.TotalBytes <= 0 || body.Aggregate.TotalMessages <= 0 {
		return fmt.Errorf("fleet bandwidth rollup accounted no traffic (bytes=%d msgs=%d)",
			body.Aggregate.TotalBytes, body.Aggregate.TotalMessages)
	}
	fmt.Printf("fleet bandwidth rollup: %d/%d shards covered, %d bytes / %d messages accounted, gaps %v\n",
		body.ShardsCovered, shards, body.Aggregate.TotalBytes, body.Aggregate.TotalMessages, body.Gaps)
	return nil
}
