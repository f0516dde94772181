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

// CPU-profile attribution. runtime/pprof writes a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); the few fields needed to
// walk each sample's stack are decoded here with a minimal wire-format
// reader, so no toolchain or module outside the standard library is
// involved.

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// internalPrefix marks the program's own packages.
const internalPrefix = "repro/internal/"

// moduleOf names the layer a frame belongs to: the package directory
// under repro/internal, with frame and arppkt folded into "codec";
// "main" for the benchmark itself; "" for everything else.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "main"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "frame", "arppkt":
		return "codec"
	}
	return rest
}

// cpuShares charges every sample to the innermost repro/internal frame on
// its stack, so runtime and map work lands on the layer that called it.
// Samples without one go to "bench" when the benchmark's own code is on the
// stack and to "runtime" otherwise (collector, scheduler). It returns each
// module's share of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		samples   [][]uint64
		sampleCnt []int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return fields(lb, func(ln int, lv uint64, _ []byte) error {
						if ln == lineFunctionID {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profSample:
			var locs []uint64
			var vals []int64
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case sampleLocationID:
					if pb == nil {
						locs = append(locs, v)
						return nil
					}
					return packed(pb, func(x uint64) { locs = append(locs, x) })
				case sampleValue:
					if pb == nil {
						vals = append(vals, int64(v))
						return nil
					}
					return packed(pb, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) == 0 {
				return errors.New("cpu profile: sample without a value")
			}
			samples = append(samples, locs)
			sampleCnt = append(sampleCnt, vals[0])
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcName[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	shares := map[string]float64{}
	var total float64
	for si, locs := range samples {
		owner, bench := "", false
	stack: // leaf first; a location's lines run innermost inlined call first
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				switch m := moduleOf(name(fid)); m {
				case "":
				case "main":
					bench = true
				default:
					owner = m
					break stack
				}
			}
		}
		if owner == "" {
			owner = "runtime"
			if bench {
				owner = "bench"
			}
		}
		n := float64(sampleCnt[si])
		shares[owner] += n
		total += n
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

// packed walks a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
