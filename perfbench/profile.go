package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares reads a gzipped pprof CPU profile and returns the share of
// CPU time, in percent, attributed to each layer. A sample is charged to
// the package of the innermost rubin/internal/<module> frame on its
// stack, so runtime work done on a layer's behalf (malloc, hashing,
// container/heap) counts to that layer. Samples whose innermost repo
// frame is the benchmark's own code count to "harness"; samples with no
// repo frame at all (GC workers, the scheduler) count to "runtime".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	layerOf := make(map[uint64]string) // location id -> layer, "" = none
	for id, fns := range p.locFuncs {
		for _, fn := range fns { // innermost (inlined) function first
			if l := layerOfFunc(p.strings[p.funcName[fn]]); l != "" {
				layerOf[id] = l
				break
			}
		}
	}
	shares := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		layer := "runtime"
		for _, loc := range s.locs { // leaf first
			if l := layerOf[loc]; l != "" {
				layer = l
				break
			}
		}
		shares[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return shares, nil
	}
	for k, v := range shares {
		shares[k] = 100 * v / total
	}
	return shares, nil
}

// layerOfFunc maps a symbol name to its layer: "pbft" for
// rubin/internal/pbft.(*Replica).commit, "harness" for the benchmark's
// own main package, "" for anything else.
func layerOfFunc(name string) string {
	if rest, ok := strings.CutPrefix(name, "rubin/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(name, "main.") {
		return "harness"
	}
	return ""
}

type profSample struct {
	locs  []uint64
	value float64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// parseProfile decodes the parts of a pprof profile.proto message that
// attribution needs: samples, locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := eachField(sub, func(f int, v uint64, sb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, sb)
				case 2:
					vals = appendVarints(vals, v, sb)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				// CPU profiles carry [samples, nanoseconds]; weigh by the
				// last value.
				s.value = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(sb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. For varint fields fn gets the
// value; for length-delimited fields it gets the bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (sub holds the
// varints) or not (v holds one).
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}
