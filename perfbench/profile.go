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

// profile is the part of a pprof profile the layer aggregation reads: the
// sample types, and for each sample its values and call stack as function
// names, innermost frame first, with inlined frames expanded.
type profile struct {
	types   []string
	samples []profSample
}

type profSample struct {
	values []int64
	stack  []string
}

// parseProfile decodes a pprof protobuf (gzipped or not), the format
// runtime/pprof writes. Only the standard library is needed: the wire
// format is a handful of nested length-delimited messages.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs     []string
		typeIdx  []uint64
		raw      [][]byte
		locFuncs = map[uint64][]uint64{} // location → function ids, innermost first
		funcName = map[uint64]uint64{}   // function → name string index
	)
	err := eachField(data, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			raw = append(raw, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errors.New("profile: string index out of range")
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}
	for _, b := range raw {
		var s profSample
		err := eachField(b, func(n, wt int, v uint64, pb []byte) error {
			switch n {
			case 1:
				locs, err := repeated(wt, v, pb)
				if err != nil {
					return err
				}
				for _, l := range locs {
					for _, f := range locFuncs[l] {
						name, err := str(funcName[f])
						if err != nil {
							return err
						}
						s.stack = append(s.stack, name)
					}
				}
			case 2:
				vals, err := repeated(wt, v, pb)
				if err != nil {
					return err
				}
				for _, x := range vals {
					s.values = append(s.values, int64(x))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(data []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field occurrence, packed (wire type
// 2) or not (wire type 0); runtime/pprof writes both.
func repeated(wt int, v uint64, b []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no sample type %q (have %v)", name, p.types)
}

// funcPackage returns the import path of a symbol as pprof names it:
// "deact/internal/sim" for "deact/internal/sim.(*Server).Acquire". Type
// arguments of a generic instantiation ("arena.Slice[go.shape...]") may
// hold paths of their own and are ignored.
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// layerOf names the layer a symbol is charged to: the simulator package
// for deact/internal/<pkg>, "runtime" for the Go runtime (allocator,
// collector, scheduler), and otherwise its import path.
func layerOf(sym string) string {
	pkg := funcPackage(sym)
	if rest, ok := strings.CutPrefix(pkg, "deact/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		return first
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}

// selfByLayer sums value idx by the layer of each sample's innermost
// frame: the layer whose own code was running.
func selfByLayer(p *profile, idx int) (map[string]int64, int64) {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.values[idx]
		total += v
		if len(s.stack) > 0 {
			by[layerOf(s.stack[0])] += v
		}
	}
	return by, total
}

// allocByLayer sums value idx by the layer of each sample's innermost
// frame outside the runtime: the code that asked for the memory.
func allocByLayer(p *profile, idx int) (map[string]int64, int64) {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.values[idx]
		total += v
		owner := "runtime"
		for _, f := range s.stack {
			if l := layerOf(f); l != "runtime" {
				owner = l
				break
			}
		}
		by[owner] += v
	}
	return by, total
}

// entry is a function whose cumulative share the traced run reports.
type entry struct {
	name string // metric prefix, e.g. "sim.Server.Acquire"
	pkg  string // import path
	recv string // receiver type; "" for a plain function, "*" for any
	fn   string
}

// matches reports whether sym is the entry itself (closures and other
// functions nested in it run under its frame and are not matched).
func (e entry) matches(sym string) bool {
	rest, ok := strings.CutPrefix(sym, e.pkg+".")
	if !ok {
		return false
	}
	switch e.recv {
	case "":
		return rest == e.fn
	case "*":
		dot := strings.LastIndex(rest, ".")
		return dot > 0 && rest[dot+1:] == e.fn && !strings.Contains(rest[:dot], ".")
	}
	return rest == "(*"+e.recv+")."+e.fn || rest == e.recv+"."+e.fn
}

// cumByEntry sums value idx over the samples whose stack contains each
// entry, counting a sample once per entry however often it recurses.
func cumByEntry(p *profile, idx int, entries []entry) (map[string]int64, int64) {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.values[idx]
		total += v
		for _, e := range entries {
			for _, f := range s.stack {
				if e.matches(f) {
					by[e.name] += v
					break
				}
			}
		}
	}
	return by, total
}
