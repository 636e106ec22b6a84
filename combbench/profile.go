package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile accumulates runtime/pprof CPU profiles bucketed by layer.
// It decodes the few fields of the profile.proto encoding it needs:
// samples (location IDs and values), locations (their inlined function
// lines), functions (their names) and the string table.
type cpuProfile struct {
	ns       map[string]int64 // bucket -> sampled CPU nanoseconds
	total    int64
	unmapped map[string]int64 // comb package with samples but no layer
}

func newCPUProfile() *cpuProfile {
	return &cpuProfile{ns: map[string]int64{}, unmapped: map[string]int64{}}
}

// share is the bucket's fraction of all sampled CPU time.
func (p *cpuProfile) share(bucket string) float64 {
	return ratio(float64(p.ns[bucket]), float64(p.total))
}

type pbSample struct {
	locs   []uint64
	values []uint64
}

// add decodes one gzipped profile and buckets its samples.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		samples []pbSample
		locs    = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcs   = map[uint64]uint64{}   // function -> name string index
		strs    []string
	)
	err = pbFields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s pbSample
			err := pbFields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbUints(s.locs, wt, v, b)
				case 2:
					s.values = pbUints(s.values, wt, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return pbFields(b, func(num, wt int, v uint64, _ []byte) error {
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
		case 5: // Profile.function
			var id, name uint64
			err := pbFields(b, func(num, wt int, v uint64, _ []byte) error {
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
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		w := int64(s.values[len(s.values)-1]) // cpu nanoseconds
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		bucket, pkg := bucketOf(stack)
		p.ns[bucket] += w
		p.total += w
		if pkg != "" {
			p.unmapped[pkg] += w
		}
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// pbFields calls fn for each field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func pbFields(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
