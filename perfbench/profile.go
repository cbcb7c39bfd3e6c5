package main

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

//go:embed layermap.txt
var layerMapText string

type prefixLayer struct{ prefix, layer string }

// layerMap is layermap.txt, longest prefix first.
var layerMap = func() []prefixLayer {
	var out []prefixLayer
	for _, line := range strings.Split(layerMapText, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			panic("layermap.txt: want `prefix layer`, got " + line)
		}
		out = append(out, prefixLayer{f[0], f[1]})
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].prefix) > len(out[j].prefix) })
	return out
}()

// layerOf is the layer of a function name, "" when no prefix matches.
func layerOf(fn string) string {
	for _, pl := range layerMap {
		if strings.HasPrefix(fn, pl.prefix) {
			return pl.layer
		}
	}
	return ""
}

// classify attributes a stack (function names, leaf first) to a layer by
// the rules in layermap.txt.
func classify(frames []string) string {
	for _, f := range frames {
		if layerOf(f) == "gc" {
			return "gc"
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "other"
}

// splitProfile returns the share of CPU time per layer of a gzipped pprof
// CPU profile.  It counts the samples labelled workload=<name> and the
// unlabelled ones: during the traced passes the only unlabelled work is the
// runtime's own (background GC, the scheduler on its system stack).
func splitProfile(data []byte, name string) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	weight := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if l, ok := s.labels["workload"]; ok && l != name {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		layer := classify(frames)
		weight[layer] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, l := range profLayers {
		if total > 0 {
			out[l] = weight[l] / total
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the split needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost inlined first
}

type profSample struct {
	locs   []uint64
	value  float64 // the last sample value: CPU nanoseconds
	labels map[string]string
}

// parseProfile decodes a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto): samples, locations, functions and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str string indices
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locs {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcs[f]))
		}
	}
	for _, s := range samples {
		ps := profSample{locs: s.locs, labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.value = float64(s.values[len(s.values)-1])
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls f for every field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func walkFields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
