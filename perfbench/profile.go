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

// Host-layer attribution of a runtime/pprof CPU profile. Each sample's
// CPU time goes to the innermost frame that belongs to a layer. Runtime
// frames form two layers of their own, chosen by function name: the
// allocator/GC and the goroutine handoff (channel operations and the
// scheduler behind nova.Env's yield). Other runtime and standard-library
// frames, such as memmove or fmt, are charged to their caller.

// layers lists the host layers in report order.
var layers = []string{"apps", "memmodel", "kernel", "epoch", "handoff", "reconfig", "fork", "gc", "harness", "other"}

// pkgLayer maps the repository's packages to their layer. Files that
// belong to a different layer than their package are in fileLayer.
var pkgLayer = map[string]string{
	"apps":        "apps",
	"cpu":         "memmodel",
	"cache":       "memmodel",
	"tlb":         "memmodel",
	"mmu":         "memmodel",
	"physmem":     "memmodel",
	"nova":        "kernel",
	"sched":       "kernel",
	"gic":         "kernel",
	"capspace":    "kernel",
	"ucos":        "kernel",
	"timer":       "kernel",
	"abi":         "kernel",
	"measure":     "kernel",
	"trace":       "kernel",
	"simclock":    "epoch",
	"reconfig":    "reconfig",
	"pl":          "reconfig",
	"bitstream":   "reconfig",
	"hwtask":      "reconfig",
	"fault":       "reconfig",
	"checkpoint":  "fork",
	"pool":        "fork",
	"scenario":    "harness",
	"experiments": "harness",
}

var fileLayer = map[string]string{
	"internal/nova/epoch.go":  "epoch",
	"internal/nova/clone.go":  "fork",
	"internal/physmem/cow.go": "fork",
}

// handoffFuncs are the nova functions that only hand the core between the
// kernel loop and a guest goroutine.
var handoffFuncs = []string{"(*Env).yield", "(*Kernel).activate", "(*Kernel).guestWrapper"}

var gcWords = []string{"gc", "malloc", "mheap", "mcache", "mcentral", "mspan", "sweep", "scav",
	"mark", "scanobject", "scanblock", "scanstack", "greyobject", "findObject", "heapBits",
	"newobject", "newarray", "makeslice", "growslice", "makemap", "wbBuf", "bulkBarrier"}

var handoffWords = []string{"chan", "select", "park", "ready", "schedule", "findRunnable",
	"findrunnable", "futex", "notesleep", "notewakeup", "semacquire", "semrelease", "lock2",
	"unlock2", "mcall", "gosched", "wakep", "startm", "stopm", "mPark", "runq", "stealWork",
	"netpoll", "osyield", "usleep", "procyield", "execute", "gogo", "goexit", "newproc",
	"casgstatus", "acquirep", "releasep", "sysmon", "handoffp", "resetspinning"}

func containsAny(s string, words []string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// frameLayer returns the layer of one frame, or "" when the frame is
// charged to its caller.
func frameLayer(fn, file string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, name, _ := strings.Cut(rest, ".")
		for suffix, l := range fileLayer {
			if strings.HasSuffix(file, suffix) {
				return l
			}
		}
		if pkg == "nova" && containsAny(name, handoffFuncs) {
			return "handoff"
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		switch {
		case containsAny(name, gcWords):
			return "gc"
		case containsAny(name, handoffWords):
			return "handoff"
		}
		return ""
	}
	if strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "internal/sync.") {
		return "handoff"
	}
	return ""
}

// layerTimes decodes a gzipped CPU profile and returns the CPU
// nanoseconds charged to each layer.
func layerTimes(prof []byte) (map[string]int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		l := "other"
	frames:
		for _, loc := range s.locs {
			for _, f := range p.locs[loc] {
				fn := p.funcs[f]
				if fl := frameLayer(fn.name, fn.file); fl != "" {
					l = fl
					break frames
				}
			}
		}
		out[l] += s.nanos
	}
	return out, nil
}

// A minimal decoder for the profile.proto messages a CPU profile uses.

type function struct{ name, file string }

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcs   map[uint64]function
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	var strs []string
	type fnRef struct{ id, name, file uint64 }
	var fns []fnRef
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a cpu value")
			}
			s.nanos = int64(vals[1])
			p.samples = append(p.samples, s)
			return nil
		case 4: // location
			var id uint64
			var fids []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var r fnRef
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					r.id = v
				case 2:
					r.name = v
				case 4:
					r.file = v
				}
				return nil
			})
			fns = append(fns, r)
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range fns {
		if r.name >= uint64(len(strs)) || r.file >= uint64(len(strs)) {
			return nil, errors.New("profile: string index out of range")
		}
		p.funcs[r.id] = function{name: strs[r.name], file: strs[r.file]}
	}
	return p, nil
}

// walk calls fn for each field of one protobuf message: v holds varint
// values, b length-delimited payloads.
func walk(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
