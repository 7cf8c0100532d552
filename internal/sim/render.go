package sim

import (
	"bufio"
	"fmt"
	"io"

	"bwcluster/internal/stats"
)

// Column is one column of a text table: its header name, the width the
// header and every cell are left-aligned to, and the fmt verb (without
// flags or width, e.g. ".4f", "d", "v") the column's cells use. A string
// cell always prints with %s, so numeric columns can hold "-"
// placeholders.
type Column struct {
	Name  string
	Width int
	Verb  string
	// Bare prints the header name unpadded. Only the n_cut ablation's
	// trailing "central" column sets it, keeping that file's bytes.
	Bare bool
}

// col is a padded Column.
func col(name string, width int, verb string) Column {
	return Column{Name: name, Width: width, Verb: verb}
}

// Block is one table of an experiment's text output: comment lines
// (printed with a "# " prefix), then, when Columns is non-empty, a header
// row and one line per row. Cells are separated by one space.
type Block struct {
	Comments []string
	Columns  []Column
	Rows     [][]any
}

// Series is an experiment's text output: its blocks, separated by blank
// lines. Every result type returns one from its Blocks method; the text
// files under results/ are its rendering.
type Series []Block

// Render writes the series as text.
func (s Series) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, b := range s {
		if i > 0 {
			bw.WriteByte('\n')
		}
		for _, c := range b.Comments {
			fmt.Fprintf(bw, "# %s\n", c)
		}
		if len(b.Columns) == 0 {
			continue
		}
		for j, c := range b.Columns {
			if j > 0 {
				bw.WriteByte(' ')
			}
			if c.Bare {
				bw.WriteString(c.Name)
			} else {
				fmt.Fprintf(bw, "%-*s", c.Width, c.Name)
			}
		}
		bw.WriteByte('\n')
		for _, row := range b.Rows {
			for j, v := range row {
				if j > 0 {
					bw.WriteByte(' ')
				}
				verb := b.Columns[j].Verb
				if _, ok := v.(string); ok {
					verb = "s"
				}
				fmt.Fprintf(bw, "%-*"+verb, b.Columns[j].Width, v)
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// cdfAt evaluates a stepwise CDF at x.
func cdfAt(points []stats.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range points {
		if p.X > x {
			break
		}
		f = p.F
	}
	return f
}
