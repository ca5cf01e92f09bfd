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

// hostLayers are the layers host CPU is split into, in report order:
// the Go runtime, the repository's packages, and everything else.
var hostLayers = []string{
	"runtime", "sim", "vm", "ace", "mmu", "mem", "pmap", "numa",
	"policy", "topology", "sched", "workloads", "other",
}

// layerOf maps a Go function name to its host layer by the package the
// function belongs to.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		dir, pkg = pkg[:i+1], pkg[i+1:]
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	pkg = dir + pkg
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "numasim/internal/"):
		name := strings.TrimPrefix(pkg, "numasim/internal/")
		for _, l := range hostLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// leafSamples decodes a gzipped pprof CPU profile and adds each sample's
// count to the layer of its leaf frame (the innermost, possibly inlined,
// function). Only the handful of profile.proto fields this needs are
// read: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2);
// Location.id (1) and .line (4); Line.function_id (1); Function.id (1)
// and .name (2).
func leafSamples(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachUint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					firstVal := true
					return eachUint(v, b, func(x uint64) {
						if firstVal {
							s.count, firstVal = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			haveLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := ""
		if fn, ok := locFn[s.leaf]; ok {
			if i, ok := fnName[fn]; ok && i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		into[layerOf(name)] += s.count
	}
	return nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either the varint value (b nil) or the
// length-delimited payload. Fixed-width fields are skipped; profile.proto
// uses none of them.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachUint visits a repeated integer field in either encoding: one
// unpacked varint (b nil) or a packed run of varints.
func eachUint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
