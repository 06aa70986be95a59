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

// Layers are the simulator's layers in report order. unattributed takes the
// samples no layer claims (the benchmark itself, the Go scheduler, idle
// threads), so the shares of a profile always sum to 1.
var layers = []string{"sim", "radio", "mac", "qlearn", "scenario", "topo", "stats", "dsme", "runtime", "unattributed"}

// layerOf maps a Go package to the layer its CPU time is charged to. The
// kernel and the medium have no interceptable boundary, so their cost is
// only visible here. Packages not listed (the standard library, the
// non-GC runtime) are transparent: their samples go to the nearest caller
// that is listed. The benchmark's own package is listed as unattributed, so
// span bookkeeping never inflates a simulator layer.
var layerOf = map[string]string{
	"qma/internal/sim":         "sim",
	"qma/internal/radio":       "radio",
	"qma/internal/mac":         "mac",
	"qma/internal/core":        "mac",
	"qma/internal/csma":        "mac",
	"qma/internal/aloha":       "mac",
	"qma/internal/bandit":      "mac",
	"qma/internal/noma":        "mac",
	"qma/internal/qlearn":      "qlearn",
	"qma/internal/scenario":    "scenario",
	"qma/internal/traffic":     "scenario",
	"qma/internal/frame":       "scenario",
	"qma/internal/superframe":  "scenario",
	"qma/internal/experiments": "scenario",
	"qma/internal/barring":     "scenario",
	"qma/internal/faults":      "scenario",
	"qma/internal/energy":      "scenario",
	"qma/internal/markov":      "scenario",
	"qma":                      "scenario",
	"qma/internal/topo":        "topo",
	"qma/internal/stats":       "stats",
	"qma/internal/dsme":        "dsme",
	"main":                     "unattributed",
}

// gcFrames are the runtime functions whose samples count as memory
// management: allocation, marking, sweeping and scavenging. A sample with
// any of them on its stack is charged to the runtime layer, whoever caused
// the allocation.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*mheap).alloc",
}

// packageOf extracts the package path from a fully qualified Go function
// name ("qma/internal/core.(*Engine).tick" → "qma/internal/core").
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfStack charges one sample, its frames ordered leaf first.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime"
			}
		}
	}
	for _, fn := range frames {
		if l, ok := layerOf[packageOf(fn)]; ok {
			return l
		}
	}
	return "unattributed"
}

// foldProfile decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each layer's share of the sampled CPU time.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		byLayer[layerOfStack(frames)] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// profile holds the parts of profile.proto the layer fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the uncompressed profile message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					for _, x := range appendPacked(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either unpacked
// (v) or packed (data non-nil).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message. Varint fields arrive
// as v, length-delimited ones as data; fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
