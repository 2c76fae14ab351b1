package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuLayers are the buckets a profile sample can be charged to, in report
// order. Each sample goes to the innermost frame in one of the engine's
// packages (core, rtree, storage, shard); core and rtree split further by
// source file. geom and the standard library are charged to their caller.
var cpuLayers = []string{
	"core.heap", "core.expand", "core.leafscan", "core.parallel", "core.other",
	"rtree.decode", "rtree.other", "storage", "shard", "runtime.gc", "other",
}

// frame is one source-level frame of a profile stack.
type frame struct{ fn, file string }

// sample is one profile sample: its stack, innermost frame first, and the
// selected value (CPU or delay nanoseconds).
type sample struct {
	stack []frame
	value int64
}

// layerOf charges a stack to one of cpuLayers.
func layerOf(stack []frame) string {
	for _, f := range stack {
		base := path.Base(f.file)
		switch funcPackage(f.fn) {
		case "repro/internal/core":
			switch base {
			case "heapalg.go", "kheap.go", "pair.go":
				return "core.heap"
			case "kernel.go", "expand.go":
				return "core.expand"
			case "sweep.go", "grid.go":
				return "core.leafscan"
			case "parallel.go":
				return "core.parallel"
			}
			return "core.other"
		case "repro/internal/rtree":
			if base == "node.go" {
				return "rtree.decode"
			}
			return "rtree.other"
		case "repro/internal/storage":
			return "storage"
		case "repro/internal/shard":
			return "shard"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.gc") || f.fn == "runtime.bgsweep" || f.fn == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	return "other"
}

// funcPackage returns the import path of a qualified Go function name such
// as "repro/internal/core.(*join).expandInto".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// byLayer sums sample values per layer.
func byLayer(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(cpuLayers))
	for _, s := range samples {
		out[layerOf(s.stack)] += s.value
	}
	return out
}

// parseProfile decodes a gzipped pprof protobuf (the format runtime/pprof
// writes) and returns its samples with the value of the named sample type
// ("cpu" for CPU profiles, "delay" for mutex profiles).
func parseProfile(data []byte, valueType string) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type function struct{ name, file uint64 }
	var (
		types     []uint64
		rawSample [][2][]uint64 // location ids, values
		locations = map[uint64][]line{}
		functions = map[uint64]function{}
		strs      []string
	)
	err = forFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return forFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := forFields(b, func(n int, v uint64, b []byte) error {
				if n == 1 || n == 2 {
					vals, err := repeated(v, b)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					if err := forFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			})
			locations[id] = lines
			return err
		case 5: // function
			var id uint64
			var f function
			err := forFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			functions[id] = f
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
	col := -1
	for i, t := range types {
		if str(t) == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	out := make([]sample, 0, len(rawSample))
	for _, rs := range rawSample {
		if col >= len(rs[1]) {
			return nil, errors.New("profile: sample with missing values")
		}
		s := sample{value: int64(rs[1][col])}
		for _, loc := range rs[0] {
			// A location lists its inlined frames innermost first.
			for _, l := range locations[loc] {
				f := functions[l.fn]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// forFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b; fixed-width fields are
// skipped.
func forFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errors.New("profile: truncated fixed field")
			}
			msg = msg[width:]
			continue
		case 2:
			size, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < size {
				return errors.New("profile: truncated field")
			}
			b = msg[n : n+int(size)]
			msg = msg[n+int(size):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, which arrives either as one
// unpacked value (b == nil) or as a packed run.
func repeated(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
