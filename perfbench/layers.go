package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// The layer table maps every Go package of the module to the layer its
// CPU time is charged to. Each package under internal/ must appear (a
// test enforces it), so a new package cannot hide in "other".
const modulePath = "denovogpu"

var packageLayers = map[string]string{
	"":                        "api", // the root package: Run, CellKey, MarshalReport, check specs
	"internal/cache":          "cache",
	"internal/cli":            "cli",
	"internal/coherence":      "coherence",
	"internal/consistency":    "consistency",
	"internal/denovo":         "denovo",
	"internal/energy":         "stats", // energy accounting rides on the stats layer
	"internal/figures":        "figures",
	"internal/gpu":            "gpu",
	"internal/gpucoh":         "gpucoh",
	"internal/interconnect":   "interconnect",
	"internal/l2":             "l2",
	"internal/litmus":         "litmus",
	"internal/machine":        "machine",
	"internal/mcheck":         "mcheck",
	"internal/mem":            "mem",
	"internal/mesi":           "mesi",
	"internal/noc":            "noc",
	"internal/obs":            "obs",
	"internal/resultcache":    "resultcache",
	"internal/runner":         "runner",
	"internal/sim":            "sim",
	"internal/stats":          "stats",
	"internal/sweepd":         "sweepd",
	"internal/testrig":        "testrig",
	"internal/topology":       "topology",
	"internal/trace":          "trace",
	"internal/wordmap":        "wordmap",
	"internal/workload":       "workload",
	"internal/workload/apps":  "workload",
	"internal/workload/graph": "workload",
	"internal/workload/sync":  "workload",
	"perfbench":               "bench", // this benchmark's own code
}

// Layers outside the module's packages.
const (
	layerCoroutine = "coroutine" // thread-block coroutine switches (runtime coro*, iter.Pull)
	layerRuntime   = "runtime"   // GC workers and the scheduler: runtime work no module code asked for
	layerOther     = "other"     // no module frame on the stack (net/http plumbing, syscalls)
)

// layerNames lists every layer once, in a fixed order.
func layerNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range packageLayers {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return append(out, layerCoroutine, layerRuntime, layerOther)
}

// funcPackage returns the package path of a fully qualified Go function
// name such as "denovogpu/internal/noc.(*Mesh).Send",
// "iter.Pull[...].func1" or, for a generic instantiation whose type
// arguments name other packages,
// "denovogpu/internal/wordmap.(*Map[go.shape.struct { ... }]).Get".
// An assembly stub with no package qualifier ("gogo") returns "".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := max(strings.LastIndexByte(fn, '/'), 0)
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return ""
}

// isRuntimePkg reports whether pkg is the Go runtime or one of its
// internal helpers (internal/runtime/atomic, internal/runtime/maps, ...);
// "" is an assembly stub of the runtime.
func isRuntimePkg(pkg string) bool {
	return pkg == "" || pkg == "runtime" || pkg == "iter" ||
		strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/")
}

// moduleLayer returns the layer of a module package, or "" for code
// outside the module.
func moduleLayer(pkg string) string {
	if pkg == modulePath {
		return packageLayers[""]
	}
	rel, ok := strings.CutPrefix(pkg, modulePath+"/")
	if !ok {
		if pkg == "main" {
			return packageLayers["perfbench"]
		}
		return ""
	}
	if l, ok := packageLayers[rel]; ok {
		return l
	}
	return layerOther
}

func isCoroutineFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.coro") || strings.HasPrefix(fn, "iter.Pull")
}

// classify charges one sample, given its stack leaf first, to a layer.
// A leaf in the module is charged to its own package. A runtime leaf
// under a coroutine switch (runtime coro*, iter.Pull) is coroutine
// switching. Any other leaf outside the module (allocation, map and
// slice runtime work, encoding/json, crypto/sha256, ...) is charged to
// the nearest module caller, so a layer's self time includes the
// library and runtime work it asked for. A stack with no module frame
// is runtime (GC workers, scheduler) when its leaf is in the runtime,
// and other (net/http plumbing, the profiler) otherwise.
func classify(stack []string) string {
	if len(stack) == 0 {
		return layerOther
	}
	leafPkg := funcPackage(stack[0])
	if l := moduleLayer(leafPkg); l != "" {
		return l
	}
	for _, fn := range stack {
		if !isRuntimePkg(funcPackage(fn)) {
			break
		}
		if isCoroutineFrame(fn) {
			return layerCoroutine
		}
	}
	for _, fn := range stack[1:] {
		if l := moduleLayer(funcPackage(fn)); l != "" {
			return l
		}
	}
	if isRuntimePkg(leafPkg) {
		return layerRuntime
	}
	return layerOther
}

// profiler collects CPU profiles of the traced segments of a run.
type profiler struct {
	buf     bytes.Buffer
	running bool
	layers  map[string]float64 // CPU seconds per layer, summed over segments
}

func newProfiler() *profiler { return &profiler{layers: map[string]float64{}} }

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	p.running = true
	return nil
}

func (p *profiler) stop() error {
	if !p.running {
		return nil
	}
	pprof.StopCPUProfile()
	p.running = false
	samples, err := parseProfile(&p.buf)
	if err != nil {
		return err
	}
	for _, s := range samples {
		p.layers[classify(s.stack)] += float64(s.cpuNanos) / 1e9
	}
	return nil
}

// selfSeconds returns every layer's CPU seconds divided by passes.
func (p *profiler) selfSeconds(passes float64) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layerNames() {
		out[l+".self_s"] = p.layers[l] / passes
	}
	return out
}

// profSample is one aggregated profile sample: its stack of function
// names, leaf first, and the CPU time it stands for.
type profSample struct {
	stack    []string
	cpuNanos int64
}

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof, keeping only what layer bucketing needs: each
// sample's stack of function names (inlined frames expanded, leaf
// first) and its last value, which for a CPU profile is nanoseconds.
func parseProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = forEachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forEachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := forEachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, cpuNanos: s.values[len(s.values)-1]})
	}
	return out, nil
}

var errProto = errors.New("malformed profile protobuf")

// forEachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload. Fixed-width fields are skipped.
func forEachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// span is one timed call the benchmark made into a layer. Spans of one
// cell (or one service request) share Cell; Parent links a span to the
// span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Cell   uint64 `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span id; a cell's root span id doubles as the
// cell id its child spans carry.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span.
func (t *tracer) record(id, parent, cell uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Cell: cell, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// child records a span caused by the cell's root span and returns its
// end time, so consecutive calls can chain.
func (t *tracer) child(cell uint64, name string, start time.Time) time.Time {
	end := time.Now()
	if t != nil {
		t.record(t.newID(), cell, cell, name, start, end)
	}
	return end
}

// writeSpans writes the spans as Chrome trace_event JSON, which
// Perfetto opens; each cell is one track.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Cell, Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
