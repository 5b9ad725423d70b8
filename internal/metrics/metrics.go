// Package metrics applies the stat tags that declare every /v1/stats
// metric once, on the struct that carries it over the wire
// (msrp.OracleStats, server.StatsResponse, router.RouterSection). Each
// numeric wire field names its kind in a `stat:"…"` tag, and the kind
// alone says how the field combines across a fleet (Fold) and across a
// load wave (Delta):
//
//   - counter: only grows; sums across replicas, subtracts across a wave.
//   - gauge: a current reading; sums across replicas, read at wave end.
//   - peak: a high-water mark, a capacity fact or a last-warm reading;
//     the max across replicas, read at wave end.
//   - rate: derived from other fields; Fold and Delta zero it and the
//     owner of the struct derives it again.
//
// The walk follows encoding/json: exported fields, embedded structs
// flattened, `json:"-"` fields skipped. Untagged fields are left alone.
package metrics

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
)

// The stat tag kinds.
const (
	counter = "counter"
	gauge   = "gauge"
	peak    = "peak"
	rate    = "rate"
)

// Fold merges x into acc: counters and gauges add, peaks keep the
// larger value, rates are zeroed.
func Fold[T any](acc *T, x T) {
	a, b := reflect.ValueOf(acc).Elem(), reflect.ValueOf(x)
	for _, sf := range wire(a.Type(), nil, nil) {
		d, s := a.FieldByIndex(sf.Index), b.FieldByIndex(sf.Index)
		switch sf.Tag.Get("stat") {
		case counter, gauge:
			add(d, s, 1)
		case peak:
			if less(d, s) {
				d.Set(s)
			}
		case rate:
			d.SetZero()
		}
	}
}

// Delta returns what changed from before to after: counters subtract,
// gauges, peaks and untagged fields keep after's value, rates are
// zeroed.
func Delta[T any](before, after T) T {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for _, sf := range wire(a.Type(), nil, nil) {
		switch sf.Tag.Get("stat") {
		case counter:
			add(a.FieldByIndex(sf.Index), b.FieldByIndex(sf.Index), -1)
		case rate:
			a.FieldByIndex(sf.Index).SetZero()
		}
	}
	return after
}

// Check reports every wire field of T that Fold and Delta would
// mishandle: a numeric field with no stat tag, a tag naming no kind,
// or a tag on a field that is not a number.
func Check[T any]() error {
	var errs []error
	t := reflect.TypeFor[T]()
	for _, sf := range wire(t, nil, nil) {
		kind := sf.Tag.Get("stat")
		numeric := sf.Type.Kind() >= reflect.Int && sf.Type.Kind() <= reflect.Float64
		switch {
		case kind == "" && numeric:
			errs = append(errs, fmt.Errorf("%v.%s: numeric wire field has no stat tag", t, sf.Name))
		case kind != "" && !numeric:
			errs = append(errs, fmt.Errorf("%v.%s: stat tag on a %v field", t, sf.Name, sf.Type))
		case kind != "" && !slices.Contains([]string{counter, gauge, peak, rate}, kind):
			errs = append(errs, fmt.Errorf("%v.%s: unknown stat kind %q", t, sf.Name, kind))
		}
	}
	return errors.Join(errs...)
}

// wire appends the fields of t that encoding/json writes, each with its
// full index path from the outermost struct.
func wire(t reflect.Type, index []int, out []reflect.StructField) []reflect.StructField {
	for i := range t.NumField() {
		sf := t.Field(i)
		if sf.Tag.Get("json") == "-" {
			continue
		}
		sf.Index = append(slices.Clip(index), i)
		if sf.Anonymous && sf.Type.Kind() == reflect.Struct {
			out = wire(sf.Type, sf.Index, out)
		} else if sf.IsExported() {
			out = append(out, sf)
		}
	}
	return out
}

// add sets d to d + sign·s.
func add(d, s reflect.Value, sign int64) {
	switch {
	case d.CanInt():
		d.SetInt(d.Int() + sign*s.Int())
	case d.CanUint():
		d.SetUint(d.Uint() + uint64(sign)*s.Uint())
	case d.CanFloat():
		d.SetFloat(d.Float() + float64(sign)*s.Float())
	}
}

// less reports a < b for two numbers of one type.
func less(a, b reflect.Value) bool {
	switch {
	case a.CanInt():
		return a.Int() < b.Int()
	case a.CanUint():
		return a.Uint() < b.Uint()
	}
	return a.CanFloat() && a.Float() < b.Float()
}
