package graph

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"msrp/internal/xrand"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		g := GNM(rng, 30+rng.Intn(20), 40+rng.Intn(60))
		var buf bytes.Buffer
		if err := Encode(g, &buf); err != nil {
			t.Fatal(err)
		}
		h, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, g, h)
	}
}

// requireSameGraph fails t unless h has g's vertex count and edge list.
func requireSameGraph(t *testing.T, g, h *Graph) {
	t.Helper()
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)",
			g.NumVertices(), g.NumEdges(), h.NumVertices(), h.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		u1, v1 := g.EdgeEndpoints(e)
		u2, v2 := h.EdgeEndpoints(e)
		if u1 != u2 || v1 != v2 {
			t.Fatalf("edge %d changed: (%d,%d) -> (%d,%d)", e, u1, v1, u2, v2)
		}
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
p msrp 3 2

e 0 1
# another comment
e 1 2
`
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

// decodeErrorCases are inputs Decode must reject with ErrBadFormat.
var decodeErrorCases = map[string]string{
	"no problem line":         "e 0 1\n",
	"bad record":              "p msrp 2 1\nx 0 1\n",
	"bad counts":              "p msrp 2 5\ne 0 1\n",
	"self loop":               "p msrp 2 1\ne 1 1\n",
	"out of range":            "p msrp 2 1\ne 0 5\n",
	"duplicate edge":          "p msrp 2 2\ne 0 1\ne 1 0\n",
	"double problem":          "p msrp 2 1\np msrp 2 1\ne 0 1\n",
	"bad vertex count":        "p msrp x 1\ne 0 1\n",
	"vertex count over int32": "p msrp 3000000000 0\n",
	"bad edge field":          "p msrp 2 1\ne 0 y\n",
	"short edge line":         "p msrp 2 1\ne 0\n",
	"wrong problem type":      "p foo 2 1\ne 0 1\n",
	"empty input":             "",
}

func TestDecodeErrors(t *testing.T) {
	for name, in := range decodeErrorCases {
		if _, err := Decode(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := Grid(3, 3)
	var a, b bytes.Buffer
	if err := Encode(g, &a); err != nil {
		t.Fatal(err)
	}
	if err := Encode(g, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Encode not deterministic")
	}
	if !strings.HasPrefix(a.String(), "p msrp 9 12\n") {
		t.Fatalf("unexpected header: %q", a.String()[:20])
	}
}

// FuzzDecode feeds arbitrary text to Decode. It must never panic, every
// error must wrap ErrBadFormat (the scanner's ErrTooLong aside), and a
// decoded graph must survive Encode → Decode with the same vertex count
// and edge list. Inputs declaring a vertex count in (2²⁰, 2³¹) are
// skipped: the count is valid, but Build allocates Θ(n) even when the
// input has no edges. Counts of 2³¹ and above are rejected before any
// allocation, so they stay in.
func FuzzDecode(f *testing.F) {
	for _, in := range decodeErrorCases {
		f.Add(in)
	}
	var buf bytes.Buffer
	if err := Encode(GNM(xrand.New(1), 12, 20), &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, in string) {
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[0] == "p" {
				if n, err := strconv.ParseInt(fields[2], 10, 64); err == nil && n > 1<<20 && n < 1<<31 {
					t.Skip()
				}
			}
		}
		g, err := Decode(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("error %v wraps neither ErrBadFormat nor bufio.ErrTooLong", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Encode(g, &out); err != nil {
			t.Fatal(err)
		}
		h, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-decoding the encoded graph: %v", err)
		}
		requireSameGraph(t, g, h)
	})
}
