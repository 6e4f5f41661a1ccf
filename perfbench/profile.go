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

// The CPU profile split. runtime/pprof writes a gzipped protobuf; the
// decoder below reads just the fields the split needs (samples, locations,
// functions, string table), so the benchmark needs nothing beyond the
// standard library.

// profLayers are the prof.<layer>_frac keys, in output order. Every sample
// is charged to exactly one of them, so they sum to 1.
var profLayers = []string{
	"wafl", "bitmap", "raid", "device", "aa", "heapcache", "hbps", "topaa",
	"obs_fragscan", "obs_other", "control", "parallel", "other", "bench", "runtime",
}

const (
	repoPrefix     = "waflfs/internal/"
	refKernelFrame = "main.(*refKernel)."
)

// profSplit accumulates folded CPU samples.
type profSplit struct {
	total   int64
	layer   map[string]int64
	mapWork int64 // samples with a runtime map frame on the stack
	sorting int64 // samples with a sort/slices frame on the stack
}

func newProfSplit() *profSplit { return &profSplit{layer: make(map[string]int64)} }

// add folds one sample: stack lists function names leaf first, n is the
// sample count. Self time goes to the innermost waflfs/internal/<pkg> frame
// (so runtime map, sort and allocation work counts to its caller) or, when
// the stack has none, to the benchmark's own frames, else to runtime.
// Samples in the reference kernel are left out.
func (p *profSplit) add(stack []string, n int64) {
	for _, f := range stack {
		if strings.HasPrefix(f, refKernelFrame) {
			return // the reference clock, not part of any layer
		}
	}
	p.total += n
	charged := "runtime"
	var isMap, isSort bool
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.map") || strings.HasPrefix(f, "internal/runtime/maps.") {
			isMap = true
		}
		if strings.HasPrefix(f, "sort.") || strings.HasPrefix(f, "slices.") {
			isSort = true
		}
		if charged == "runtime" {
			if l, ok := repoLayer(f); ok {
				charged = l
			} else if strings.HasPrefix(f, "main.") {
				charged = "bench"
			}
		}
	}
	p.layer[charged] += n
	if isMap {
		p.mapWork += n
	}
	if isSort {
		p.sorting += n
	}
}

// repoLayer maps a function name to its prof layer when it belongs to the
// program (waflfs/internal/...).
func repoLayer(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", false
	}
	rest := fn[len(repoPrefix):]
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other", true
	}
	pkg := rest[:slash+1+dot]
	switch {
	case pkg == "obs/fragscan":
		return "obs_fragscan", true
	case pkg == "obs" || strings.HasPrefix(pkg, "obs/"):
		return "obs_other", true
	}
	switch pkg {
	case "wafl", "bitmap", "raid", "device", "aa", "heapcache", "hbps", "topaa", "control", "parallel":
		return pkg, true
	}
	return "other", true
}

// frac returns the share of samples charged to a layer.
func (p *profSplit) frac(n int64) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(n) / float64(p.total)
}

// addProfile folds a runtime/pprof CPU profile into the split.
func (p *profSplit) addProfile(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range prof.locLines[id] {
				stack = append(stack, prof.funcName(fid))
			}
		}
		p.add(stack, s.values[0])
	}
	return nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

func (p *pbProfile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || int(i) >= len(p.strs) {
		return "?"
	}
	return p.strs[i]
}

// decodeProfile reads the Profile message fields 2 (sample), 4 (location),
// 5 (function) and 6 (string_table).
func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locLines: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s pbSample
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, sb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, sb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var lines []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							lines = append(lines, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = lines
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints collects a repeated varint field in either packed (wire 2)
// or one-per-field (wire 0) encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with the varint value
// (wire 0) or the payload (wire 2); fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
