package metrics

import (
	"strings"
	"testing"
)

// Base is embedded in sample: the walk must reach its counters.
type Base struct {
	CI   int     `json:"ci" stat:"counter"`
	CI64 int64   `json:"ci64" stat:"counter"`
	CU   uint64  `json:"cu" stat:"counter"`
	CF   float64 `json:"cf" stat:"counter"`
}

// sample carries every kind on int, int64, uint64 and float64 fields,
// a tagged field hidden from the wire, and an untagged non-number.
type sample struct {
	Base
	GI     int     `json:"gi" stat:"gauge"`
	GI64   int64   `json:"gi64" stat:"gauge"`
	GU     uint64  `json:"gu" stat:"gauge"`
	GF     float64 `json:"gf" stat:"gauge"`
	PI     int     `json:"pi" stat:"peak"`
	PI64   int64   `json:"pi64" stat:"peak"`
	PU     uint64  `json:"pu" stat:"peak"`
	PF     float64 `json:"pf" stat:"peak"`
	RI     int     `json:"ri" stat:"rate"`
	RI64   int64   `json:"ri64" stat:"rate"`
	RU     uint64  `json:"ru" stat:"rate"`
	RF     float64 `json:"rf" stat:"rate"`
	Hidden int64   `json:"-" stat:"counter"`
	Name   string  `json:"name"`
}

var (
	sampleA = sample{Base: Base{1, 2, 3, 0.5}, GI: 1, GI64: 2, GU: 3, GF: 0.25,
		PI: 5, PI64: -1, PU: 1, PF: 2.5, RI: 9, RI64: 9, RU: 9, RF: 9, Hidden: 7, Name: "a"}
	sampleB = sample{Base: Base{10, 20, 30, 1.25}, GI: 10, GI64: 20, GU: 30, GF: 1.5,
		PI: 3, PI64: 4, PU: 7, PF: 1.5, RI: 8, RI64: 8, RU: 8, RF: 8, Hidden: 70, Name: "b"}
)

func TestFold(t *testing.T) {
	acc := sampleA
	Fold(&acc, sampleB)
	want := sample{Base: Base{11, 22, 33, 1.75}, GI: 11, GI64: 22, GU: 33, GF: 1.75,
		PI: 5, PI64: 4, PU: 7, PF: 2.5, Hidden: 7, Name: "a"}
	if acc != want {
		t.Fatalf("Fold:\n got  %+v\n want %+v", acc, want)
	}
}

func TestDelta(t *testing.T) {
	got := Delta(sampleA, sampleB)
	want := sample{Base: Base{9, 18, 27, 0.75}, GI: 10, GI64: 20, GU: 30, GF: 1.5,
		PI: 3, PI64: 4, PU: 7, PF: 1.5, Hidden: 70, Name: "b"}
	if got != want {
		t.Fatalf("Delta:\n got  %+v\n want %+v", got, want)
	}
}

func TestCheck(t *testing.T) {
	if err := Check[sample](); err != nil {
		t.Fatalf("Check on a fully tagged struct: %v", err)
	}
	type bad struct {
		Base
		Untagged uint32 `json:"untagged"`
		Typo     int64  `json:"typo" stat:"countr"`
		Label    string `json:"label" stat:"gauge"`
		Off      int64  `json:"-"`
		Name     string `json:"name"`
	}
	err := Check[bad]()
	if err == nil {
		t.Fatal("Check passed a struct with an untagged number, an unknown kind and a tagged string")
	}
	for _, field := range []string{"Untagged", "Typo", "Label"} {
		if !strings.Contains(err.Error(), "."+field+":") {
			t.Errorf("Check did not report %s: %v", field, err)
		}
	}
	for _, field := range []string{"Off", "Name", "CI"} {
		if strings.Contains(err.Error(), "."+field+":") {
			t.Errorf("Check reported %s: %v", field, err)
		}
	}
}
