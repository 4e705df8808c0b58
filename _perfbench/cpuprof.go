package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuProfile takes a CPU profile of the traced run's measured phase and
// attributes each sample to the package of its leaf frame.
type cpuProfile struct {
	buf     bytes.Buffer
	running bool
	counts  map[string]int64 // function name of the leaf frame → samples
}

func (p *cpuProfile) start() {
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		return
	}
	p.running = true
}

func (p *cpuProfile) stop() {
	if !p.running {
		return
	}
	pprof.StopCPUProfile()
	p.running = false
	counts, err := leafSamples(p.buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		return
	}
	p.counts = counts
}

// cpuModules are the buckets reported as cpu.<module>; "other" takes
// the rest of the standard library and "bench" this program itself.
var cpuModules = []string{"vclock", "broker", "engine", "core", "locindex", "storage",
	"wire", "transport", "modelcheck", "simtest", "runtime", "syscall", "other", "bench"}

// shares returns each module's share of the profile's samples. Every
// bucket is present, so an idle module reads 0.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	var total int64
	for _, n := range p.counts {
		total += n
	}
	for fn, n := range p.counts {
		out[moduleOf(fn)] += float64(n) / float64(total)
	}
	return out
}

// moduleOf maps a profile function name such as
// "crossflow/internal/vclock.(*Sim).run" to its bucket.
func moduleOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "crossflow/internal/"):
		m := strings.TrimPrefix(pkg, "crossflow/internal/")
		for _, known := range cpuModules {
			if m == known {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "crossflow/perfbench"), pkg == "main":
		return "bench"
	case pkg == "syscall", pkg == "internal/runtime/syscall", strings.HasPrefix(pkg, "internal/syscall"):
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// leafSamples decodes a gzipped pprof profile (the profile.proto
// message) just far enough to count samples by the function name of
// each sample's leaf frame. Field numbers follow
// github.com/google/pprof/proto/profile.proto: Profile.sample=2,
// .location=4, .function=5, .string_table=6; Sample.location_id=1,
// .value=2; Location.id=1, .line=4; Line.function_id=1; Function.id=1,
// .name=2.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = make(map[uint64]uint64) // location id → leaf function id
		funcName = make(map[uint64]int64)  // function id → string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 2: // packed location ids, leaf first
					if first && len(b) > 0 {
						s.leaf, _ = binary.Uvarint(b)
						first = false
					}
				case num == 1 && wire == 0:
					if first {
						s.leaf, first = v, false
					}
				case num == 2 && wire == 2: // packed values; [0] is the sample count
					if s.count == 0 && len(b) > 0 {
						c, _ := binary.Uvarint(b)
						s.count = int64(c)
					}
				case num == 2 && wire == 0:
					if s.count == 0 {
						s.count = int64(v)
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // the first Line is the innermost (inlined-into last)
					if !seenLine {
						seenLine = true
						return eachField(b, func(num, wire int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		name := "?"
		if idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the bytes. Fixed-width fields are skipped.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
