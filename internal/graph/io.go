package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is a simplified DIMACS-like format:
//
//	# comment lines start with '#'
//	p msrp <n> <m>
//	e <u> <v>            (m lines, 0-based vertex ids)
//
// It is line-oriented and diff-friendly; the CLI tools read and write it.

// ErrBadFormat is wrapped by all Decode parse failures.
var ErrBadFormat = errors.New("graph: malformed input")

// Encode writes g to w in the text format.
func Encode(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p msrp %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for i := 0; i < g.NumEdges(); i++ {
		u, v := g.EdgeEndpoints(i)
		if _, err := fmt.Fprintf(bw, "e %d %d\n", u, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a graph in the text format from r.
func Decode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var b *Builder
	edges, wantEdges := 0, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if b != nil {
				return nil, fmt.Errorf("%w: duplicate problem line at line %d", ErrBadFormat, line)
			}
			if len(fields) != 4 || fields[1] != "msrp" {
				return nil, fmt.Errorf("%w: bad problem line at line %d", ErrBadFormat, line)
			}
			// Vertex ids are int32, so a count of 2³¹ or more is
			// out of range (ParseInt's bitSize rejects it).
			n, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: bad vertex count at line %d", ErrBadFormat, line)
			}
			m, err := strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("%w: bad edge count at line %d", ErrBadFormat, line)
			}
			b = NewBuilder(int(n))
			wantEdges = m
		case "e":
			if b == nil {
				return nil, fmt.Errorf("%w: edge before problem line at line %d", ErrBadFormat, line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: bad edge line at line %d", ErrBadFormat, line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("%w: bad endpoint at line %d", ErrBadFormat, line)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("%w: bad endpoint at line %d", ErrBadFormat, line)
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
			}
			edges++
		default:
			return nil, fmt.Errorf("%w: unknown record %q at line %d", ErrBadFormat, fields[0], line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("%w: missing problem line", ErrBadFormat)
	}
	if edges != wantEdges {
		return nil, fmt.Errorf("%w: expected %d edges, found %d", ErrBadFormat, wantEdges, edges)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return g, nil
}
