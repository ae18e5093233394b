package main

// A minimal decoder for the gzipped protobuf profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), reading only
// what per-module attribution needs: samples, locations, functions and
// the string table. It keeps the benchmark free of module dependencies.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerModules are the repository packages CPU time is attributed to,
// in report order. A sample goes to the innermost frame on its stack
// that belongs to one of the repository's packages; frames of the
// benchmark itself (package main) and of packages not listed here count
// as "other".
var layerModules = []string{
	"sim", "storage", "iosched", "mapreduce", "dfs", "cluster", "broker",
	"shares", "audit", "trace", "workloads", "scale", "experiments",
}

// Attribution buckets besides the modules.
const (
	gcBucket    = "runtime.gc"
	otherBucket = "other"
)

// cpuBuckets lists every attribution bucket in report order.
func cpuBuckets() []string {
	return append(append([]string{}, layerModules...), gcBucket, otherBucket)
}

type pprofProfile struct {
	// sampleTypes are string-table indexes of each value's type.
	sampleTypes []int64
	samples     []pprofSample
	// locations maps a location id to its function ids, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type pprofSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// attributeCPU decodes a CPU profile and returns the CPU seconds per
// attribution bucket.
func attributeCPU(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if st >= 0 && int(st) < len(p.strings) && p.strings[st] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make(map[string]float64)
	for _, b := range cpuBuckets() {
		out[b] = 0
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var names []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if si := p.functions[fn]; si >= 0 && int(si) < len(p.strings) {
					names = append(names, p.strings[si])
				}
			}
		}
		out[bucketOf(names)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// bucketOf attributes one stack (function names, innermost first).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return otherBucket
		}
		if rest, ok := strings.CutPrefix(fn, "ibis/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, m := range layerModules {
				if m == mod {
					return m
				}
			}
			return otherBucket
		}
		if strings.HasPrefix(fn, "ibis/") {
			return otherBucket
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return gcBucket
		}
	}
	return otherBucket
}

func decodeProfile(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type, unit}
			var typ int64 = -1
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample: {location_id, value, label}
			var s pprofSample
			if err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location: {id, mapping_id, address, line}
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: {function_id, line}
					return walkFields(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function: {id, name, system_name, filename, start_line}
			var id uint64
			var name int64 = -1
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v holds
// a varint or fixed value, b the payload of a length-delimited field.
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case wire64:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case wire32:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one unpacked varint, or a packed run of them.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("profile: unexpected wire type %d for integers", wire)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
