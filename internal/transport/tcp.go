package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster/internal/bwledger"
	"bwcluster/internal/telemetry"
)

// maxFrame bounds a single wire frame; protocol messages are small
// (id slices and scalars), so anything larger indicates a corrupt or
// hostile stream and tears the connection down.
const maxFrame = 1 << 20

// wireVersion is the TCP frame format version, carried in every frame
// header so mixed-version processes fail loudly at the first frame
// instead of mis-decoding each other. Version 2 added the header's
// version and payload-tag bytes and the trace payloads (v1 frames had
// neither byte, so a v1 peer is rejected by the header check, not by
// gob). Version 3 carries hop reports as telemetry.SpanEvent, whose
// parent field is ParentID: gob would silently zero a v2 report's
// ParentSpan, so a v2 peer is rejected at its first frame instead.
const wireVersion = 3

// Frame payload tags. Untraced messages — all gossip, and every query
// when tracing is off — are encoded as a wireMessage, whose gob type
// descriptors exclude the trace structs; each frame uses a fresh
// encoder, so those descriptors would otherwise ride on every single
// frame (+50% on a typical gossip body) whether or not tracing is on.
// Only frames that actually carry trace state pay for its schema.
// Snapshot chunks get the same treatment for the same reason: they are
// rare and huge where gossip is constant and tiny, so their schema (and
// payload) must never ride the lean frame.
const (
	frameLean     = 0 // payload is a gob wireMessage (no trace or snapshot state)
	frameTraced   = 1 // payload is a gob Message (trace context or event)
	frameSnapshot = 2 // payload is a gob Message carrying a snapshot chunk
)

// wireMessage is the lean frame payload: Message minus the trace
// fields. It must list exactly the non-trace fields of Message.
type wireMessage struct {
	Kind       Kind
	From, To   int
	Nodes      []int
	CRT        []int
	Query      *Query
	NodeQuery  *NodeQuery
	Result     *Result
	NodeResult *NodeResult
}

// TCPConfig configures a TCPTransport. Only Listen is required.
type TCPConfig struct {
	// Listen is the local listen address ("127.0.0.1:0" for an ephemeral
	// port; read the bound address back with Addr).
	Listen string
	// Routes maps remote peer ids to the address of the process hosting
	// them. Locally registered peers need no route.
	Routes map[int]string
	// DialTimeout bounds one connection attempt (non-positive: 2s).
	DialTimeout time.Duration
	// SendTimeout bounds a blocking Send waiting for outbound queue
	// space, and each frame write (non-positive: 5s).
	SendTimeout time.Duration
	// BackoffBase is the first reconnect delay (non-positive: 25ms);
	// subsequent attempts double it up to BackoffMax, plus jitter.
	BackoffBase time.Duration
	// BackoffMax caps the reconnect delay (non-positive: 1s).
	BackoffMax time.Duration
	// QueueLen is the per-remote outbound queue length (non-positive:
	// DefaultInboxCapacity).
	QueueLen int
	// InboxCapacity is the local per-peer inbox length (non-positive:
	// DefaultInboxCapacity).
	InboxCapacity int
	// SocketBuffer sizes the kernel send and receive buffers of every
	// connection, in bytes (non-positive: 8192). Deliberately small: the
	// kernel buffer is a FIFO the coalescing layer cannot reach into, so
	// a large one lets a fast writer queue seconds of stale gossip ahead
	// of a slow reader. A small buffer pushes that backlog back into the
	// sender's per-slot coalescing buffer, where newer values supersede
	// older ones and delivered gossip stays fresh.
	SocketBuffer int
	// JitterSeed seeds the backoff jitter stream (0: derived from the
	// listen address). Jitter only spreads reconnect storms; it never
	// affects protocol state.
	JitterSeed int64
}

// withDefaults fills the zero fields.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.QueueLen <= 0 {
		c.QueueLen = DefaultInboxCapacity
	}
	if c.InboxCapacity <= 0 {
		c.InboxCapacity = DefaultInboxCapacity
	}
	if c.SocketBuffer <= 0 {
		c.SocketBuffer = 8192
	}
	return c
}

// tune applies the transport's socket options to a new connection. Best
// effort: a connection that rejects the options still works, it just
// buffers more.
func (t *TCPTransport) tune(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(t.cfg.SocketBuffer)
		tc.SetReadBuffer(t.cfg.SocketBuffer)
	}
}

// TCPTransport moves messages over real TCP connections:
// length-prefixed gob frames, one outbound connection per remote
// process with a writer goroutine, per-connection reconnect with
// exponential backoff and jitter, and an accept loop feeding locally
// registered peer inboxes. Sends to locally registered peers
// short-circuit in process; everything else is routed by TCPConfig.Routes
// (extended at runtime with AddRoute).
type TCPTransport struct {
	cfg        TCPConfig
	ln         net.Listener
	closed     chan struct{}
	closeOnce  sync.Once
	closeErr   error
	wg         sync.WaitGroup
	reconnects atomic.Int64
	flight     flightRef
	ledger     ledgerRef

	mu     sync.Mutex
	eps    map[int]*endpoint   // guarded by mu
	routes map[int]string      // guarded by mu
	conns  map[string]*tcpConn // guarded by mu
}

// SetFlight attaches a flight recorder; non-gossip frames, drops and
// reconnect attempts are recorded, and a sustained reconnect failure
// sequence fires a reconnect_storm anomaly dump. A nil recorder
// detaches.
func (t *TCPTransport) SetFlight(r *telemetry.FlightRecorder) { t.flight.set(r) }

// SetLedger attaches a bandwidth ledger: outbound frames account their
// exact wire length on a successful write, inbound frames on delivery
// to a local inbox, and in-process short-circuit deliveries account the
// WireSize estimate once like the channel transport. A nil ledger
// detaches.
func (t *TCPTransport) SetLedger(l *bwledger.Ledger) { t.ledger.set(l) }

// noteReconnect accounts one failed dial/write attempt on a connection:
// counters, the flight ring, and — when the consecutive-failure count
// crosses the storm threshold — the anomaly dump.
func (t *TCPTransport) noteReconnect(addr string, attempt int) {
	t.reconnects.Add(1)
	mTCPReconnects.Inc()
	fl := t.flight.get()
	fl.Record(flightReconnect, -1, -1, fmt.Sprintf("%s attempt=%d", addr, attempt))
	if attempt == reconnectStormAttempts {
		fl.Anomaly(anomalyReconnectStorm, -1, -1,
			fmt.Sprintf("%s unreachable after %d attempts", addr, attempt))
	}
}

// tcpConn is one outbound connection: an address, queues, and a writer
// goroutine that owns dialing, reconnecting and framing.
//
// Queries and results use a bounded FIFO (out). Gossip uses a coalescing
// buffer instead: the protocol's gossip is idempotent latest-state
// transfer, so when the writer falls behind the tick rate (slow link,
// reconnect backoff), a newer message for the same (from, to, kind)
// supersedes the queued one rather than piling up behind it. This bounds
// the gossip backlog at the overlay's edge count, keeps delivered gossip
// fresh, and — unlike dropping at a full FIFO — can never starve one
// peer's updates behind another's: every (from, to, kind) slot
// eventually ships its latest value.
type tcpConn struct {
	addr string
	out  chan Message
	kick chan struct{} // signals the writer that gossip is pending

	mu     sync.Mutex
	gossip map[gossipKey]Message // guarded by mu; latest message per slot
	order  []gossipKey           // guarded by mu; FIFO of pending slots
}

// gossipKey identifies one coalescing slot: a directed overlay edge and
// a gossip kind.
type gossipKey struct {
	from, to int
	kind     Kind
}

// enqueueGossip records m as the latest value of its slot and wakes the
// writer. It never blocks and never drops the newest value.
func (c *tcpConn) enqueueGossip(m Message) {
	key := gossipKey{from: m.From, to: m.To, kind: m.Kind}
	c.mu.Lock()
	if _, pending := c.gossip[key]; !pending {
		c.order = append(c.order, key)
	} else {
		mDropped.Inc(reasonSuperseded)
	}
	c.gossip[key] = m
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// popGossip takes the oldest pending slot's latest message.
func (c *tcpConn) popGossip() (Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return Message{}, false
	}
	key := c.order[0]
	c.order = c.order[1:]
	m := c.gossip[key]
	delete(c.gossip, key)
	return m, true
}

// NewTCP builds a TCP transport listening on cfg.Listen and starts its
// accept loop.
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCPTransport{
		cfg:    cfg,
		ln:     ln,
		closed: make(chan struct{}),
		eps:    make(map[int]*endpoint),
		routes: make(map[int]string, len(cfg.Routes)),
		conns:  make(map[string]*tcpConn),
	}
	for id, addr := range cfg.Routes {
		t.routes[id] = addr
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Reconnects returns how many reconnect dial attempts this transport has
// made (also exported as bwc_transport_tcp_reconnects_total).
func (t *TCPTransport) Reconnects() int64 { return t.reconnects.Load() }

// AddRoute maps a remote peer id to the address of its hosting process,
// replacing any previous route.
func (t *TCPTransport) AddRoute(id int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[id] = addr
}

// Register attaches a local peer and returns its inbound channel.
func (t *TCPTransport) Register(id int) (<-chan Message, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return nil, ErrClosed
	default:
	}
	if _, ok := t.eps[id]; ok {
		return nil, fmt.Errorf("transport: peer %d already registered", id)
	}
	ep := &endpoint{inbox: make(chan Message, t.cfg.InboxCapacity), gone: make(chan struct{})}
	t.eps[id] = ep
	return ep.inbox, nil
}

// Unregister detaches a local peer. Unknown ids are a no-op.
func (t *TCPTransport) Unregister(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep, ok := t.eps[id]; ok {
		close(ep.gone)
		delete(t.eps, id)
	}
	return nil
}

// endpoint returns the local endpoint for id, nil if not registered.
func (t *TCPTransport) endpoint(id int) *endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eps[id]
}

// route returns the configured address for a remote peer id.
func (t *TCPTransport) route(id int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.routes[id]
}

// conn returns the outbound connection for addr, creating it (and its
// writer goroutine) on first use.
func (t *TCPTransport) conn(addr string) *tcpConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[addr]; ok {
		return c
	}
	c := &tcpConn{
		addr:   addr,
		out:    make(chan Message, t.cfg.QueueLen),
		kick:   make(chan struct{}, 1),
		gossip: make(map[gossipKey]Message),
	}
	t.conns[addr] = c
	t.wg.Add(1)
	go t.writeLoop(c)
	return c
}

// Send delivers m to peer m.To: in-process when the peer is registered
// locally, otherwise enqueued on the connection to its routed process.
// Blocks up to SendTimeout for queue space (gossip coalesces instead of
// blocking).
func (t *TCPTransport) Send(m Message) error {
	if ep := t.endpoint(m.To); ep != nil {
		// Size the frame before the handoff: once the inbox accepts m
		// the receiver owns its pointer fields, so reading them
		// afterwards would race (see ChanTransport.Send).
		size := m.WireSize()
		select {
		case ep.inbox <- m:
			mDelivered.Inc(m.Kind.String())
			t.ledger.get().Record(m.From, m.To, m.Kind.String(), size)
			if !m.Kind.Gossip() {
				t.flight.get().Record(flightSend, m.From, m.To, m.Kind.String())
			}
			return nil
		case <-ep.gone:
			return ErrUnknownPeer
		case <-t.closed:
			return ErrClosed
		}
	}
	addr := t.route(m.To)
	if addr == "" {
		mDropped.Inc(reasonNoRoute)
		t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonNoRoute)
		return ErrUnknownPeer
	}
	c := t.conn(addr)
	if m.Kind.Gossip() {
		c.enqueueGossip(m)
		return nil
	}
	timer := time.NewTimer(t.cfg.SendTimeout)
	defer timer.Stop()
	select {
	case c.out <- m:
		return nil
	case <-t.closed:
		return ErrClosed
	case <-timer.C:
		mDropped.Inc(reasonQueueFull)
		t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonQueueFull)
		return ErrTimeout
	}
}

// TrySend attempts best-effort delivery of m to peer m.To; a full inbox
// or outbound queue drops the message (counted) and returns ErrInboxFull.
// Remote gossip never fails this way: it coalesces into its slot, where
// only superseded values are discarded.
func (t *TCPTransport) TrySend(m Message) error {
	if ep := t.endpoint(m.To); ep != nil {
		size := m.WireSize() // before the handoff; see Send
		select {
		case ep.inbox <- m:
			mDelivered.Inc(m.Kind.String())
			t.ledger.get().Record(m.From, m.To, m.Kind.String(), size)
			if !m.Kind.Gossip() {
				t.flight.get().Record(flightSend, m.From, m.To, m.Kind.String())
			}
			return nil
		default:
			mDropped.Inc(reasonInboxFull)
			t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonInboxFull)
			return ErrInboxFull
		}
	}
	addr := t.route(m.To)
	if addr == "" {
		mDropped.Inc(reasonNoRoute)
		t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonNoRoute)
		return ErrUnknownPeer
	}
	c := t.conn(addr)
	if m.Kind.Gossip() {
		c.enqueueGossip(m)
		return nil
	}
	select {
	case c.out <- m:
		return nil
	default:
		mDropped.Inc(reasonQueueFull)
		t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonQueueFull)
		return ErrInboxFull
	}
}

// writeLoop owns one outbound connection: it dials lazily, writes
// length-prefixed gob frames with a deadline, and on any error tears the
// connection down and reconnects with exponential backoff plus jitter,
// retrying the in-flight message until the transport closes.
func (t *TCPTransport) writeLoop(c *tcpConn) {
	defer t.wg.Done()
	// Jitter spreads simultaneous reconnect attempts; seeded per
	// connection so backoff remains reproducible for a fixed config.
	h := fnv.New64a()
	io.WriteString(h, c.addr)
	rng := rand.New(rand.NewSource(t.cfg.JitterSeed ^ int64(h.Sum64())))
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	attempt := 0
	for {
		var m Message
		ok := false
		// Queries and results first — they are latency-sensitive and
		// bounded; gossip slots hold only the latest value, so serving
		// them second never lets gossip go stale.
		select {
		case m = <-c.out:
			ok = true
		default:
		}
		if !ok {
			m, ok = c.popGossip()
		}
		if !ok {
			select {
			case <-t.closed:
				return
			case m = <-c.out:
			case <-c.kick:
				if m, ok = c.popGossip(); !ok {
					continue
				}
			}
		}
		select {
		case <-t.closed:
			return
		default:
		}
		frame, err := encodeFrame(m)
		if err != nil {
			// Unencodable message: drop it rather than wedge the queue.
			mDropped.Inc(reasonQueueFull)
			continue
		}
		for {
			if conn == nil {
				conn, err = net.DialTimeout("tcp", c.addr, t.cfg.DialTimeout)
				if err == nil {
					t.tune(conn)
				} else {
					attempt++
					t.noteReconnect(c.addr, attempt)
					if !t.backoffWait(attempt, rng) {
						return
					}
					continue
				}
				if attempt > 0 {
					attempt = 0
				}
			}
			conn.SetWriteDeadline(time.Now().Add(t.cfg.SendTimeout))
			if _, err = conn.Write(frame); err == nil {
				mTCPFrames.Inc(dirSent)
				t.ledger.get().Record(m.From, m.To, m.Kind.String(), len(frame))
				if !m.Kind.Gossip() {
					t.flight.get().Record(flightSend, m.From, m.To, m.Kind.String())
				}
				break
			}
			conn.Close()
			conn = nil
			attempt++
			t.noteReconnect(c.addr, attempt)
			if !t.backoffWait(attempt, rng) {
				return
			}
		}
	}
}

// backoffWait sleeps the exponential-backoff delay for the given attempt
// (base doubling up to max, plus up to 50% jitter). It returns false if
// the transport closed while waiting.
func (t *TCPTransport) backoffWait(attempt int, rng *rand.Rand) bool {
	d := t.cfg.BackoffBase
	for i := 1; i < attempt && d < t.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > t.cfg.BackoffMax {
		d = t.cfg.BackoffMax
	}
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.closed:
		return false
	}
}

// acceptLoop accepts inbound connections until the listener closes.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.tune(conn)
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection and delivers them
// to local inboxes. It exits on any read error (the remote writer
// reconnects) or when the transport closes.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	// A blocked Read only unblocks when the connection closes; this
	// watcher ties the connection's life to the transport's.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		select {
		case <-t.closed:
			conn.Close()
		case <-stop:
		}
	}()
	br := bufio.NewReader(conn)
	for {
		m, size, err := readFrame(br)
		if err != nil {
			return
		}
		mTCPFrames.Inc(dirRecv)
		ep := t.endpoint(m.To)
		if ep == nil {
			mDropped.Inc(reasonUnknownPeer)
			t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonUnknownPeer)
			continue
		}
		// Best-effort kinds are shed on a full inbox: gossip is re-sent
		// every tick and a lost trace report becomes an explicit gap, so
		// blocking the whole stream on one full inbox would only delay
		// fresher values (and any queries framed behind them).
		if m.Kind.BestEffort() {
			select {
			case ep.inbox <- m:
				mDelivered.Inc(m.Kind.String())
				t.ledger.get().Record(m.From, m.To, m.Kind.String(), size)
				if !m.Kind.Gossip() {
					t.flight.get().Record(flightRecv, m.To, m.From, m.Kind.String())
				}
			default:
				mDropped.Inc(reasonInboxFull)
				t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonInboxFull)
			}
			continue
		}
		select {
		case ep.inbox <- m:
			mDelivered.Inc(m.Kind.String())
			t.ledger.get().Record(m.From, m.To, m.Kind.String(), size)
			t.flight.get().Record(flightRecv, m.To, m.From, m.Kind.String())
		case <-ep.gone:
			mDropped.Inc(reasonUnknownPeer)
			t.flight.get().Record(flightDrop, m.From, m.To, m.Kind.String()+" "+reasonUnknownPeer)
		case <-t.closed:
			return
		}
	}
}

// encodeFrame renders m as one self-contained wire frame: a 4-byte
// big-endian body length, a 1-byte wire version, a 1-byte payload tag,
// then the gob-encoded payload. Each frame carries its own type
// information, so a stream survives reconnects and frames can be
// decoded in isolation; the tag keeps the trace structs' type
// descriptors off untraced frames entirely (see frameLean).
func encodeFrame(m Message) ([]byte, error) {
	var body bytes.Buffer
	tag := byte(frameLean)
	var err error
	if m.Snapshot != nil {
		tag = frameSnapshot
		err = gob.NewEncoder(&body).Encode(m)
	} else if m.Trace != nil || m.Event != nil {
		tag = frameTraced
		err = gob.NewEncoder(&body).Encode(m)
	} else {
		err = gob.NewEncoder(&body).Encode(wireMessage{
			Kind: m.Kind, From: m.From, To: m.To,
			Nodes: m.Nodes, CRT: m.CRT,
			Query: m.Query, NodeQuery: m.NodeQuery,
			Result: m.Result, NodeResult: m.NodeResult,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("transport: encode frame: %w", err)
	}
	if body.Len() > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", body.Len(), maxFrame)
	}
	frame := make([]byte, 6+body.Len())
	binary.BigEndian.PutUint32(frame, uint32(body.Len()))
	frame[4] = wireVersion
	frame[5] = tag
	copy(frame[6:], body.Bytes())
	return frame, nil
}

// readFrame reads and decodes one frame from r, rejecting frames whose
// header declares a version or payload tag this build does not speak.
// The second return is the frame's full wire length (header included),
// which the read loop accounts to the bandwidth ledger on delivery.
func readFrame(r io.Reader) (Message, int, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return Message{}, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if hdr[4] != wireVersion {
		return Message{}, 0, fmt.Errorf("transport: unsupported wire version %d (this build speaks %d)", hdr[4], wireVersion)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, 0, err
	}
	size := len(hdr) + len(body)
	switch hdr[5] {
	case frameLean:
		var w wireMessage
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&w); err != nil {
			return Message{}, 0, fmt.Errorf("transport: decode frame: %w", err)
		}
		return Message{
			Kind: w.Kind, From: w.From, To: w.To,
			Nodes: w.Nodes, CRT: w.CRT,
			Query: w.Query, NodeQuery: w.NodeQuery,
			Result: w.Result, NodeResult: w.NodeResult,
		}, size, nil
	case frameTraced, frameSnapshot:
		var m Message
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
			return Message{}, 0, fmt.Errorf("transport: decode frame: %w", err)
		}
		return m, size, nil
	}
	return Message{}, 0, fmt.Errorf("transport: unsupported frame payload tag %d", hdr[5])
}

// Close shuts the transport down: the listener stops accepting, every
// open connection is torn down, blocked senders release, and Close
// returns once every transport goroutine has exited.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.closeErr = t.ln.Close()
		t.wg.Wait()
	})
	return t.closeErr
}
