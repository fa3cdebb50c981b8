package fleet

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// reachesType reports whether a value of type from can hold a value of
// type target: through struct fields (unexported ones too), pointers,
// slices, arrays, maps and channels. Function and interface types are
// opaque to it, so the answer is about the declared types only.
func reachesType(from, target reflect.Type) bool {
	seen := make(map[reflect.Type]bool)
	var walk func(reflect.Type) bool
	walk = func(t reflect.Type) bool {
		if t == target {
			return true
		}
		if seen[t] {
			return false
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			return walk(t.Elem())
		case reflect.Map:
			return walk(t.Key()) || walk(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if walk(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	return walk(from)
}

// liveHeapOf reports how much live heap build's result holds: the heap
// after a collection with it alive, less the heap before. Two
// collections on each side empty the sync.Pool caches, whose release
// would otherwise count against the result.
func liveHeapOf(build func() any) int64 {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	v := build()
	after := heap()
	runtime.KeepAlive(v)
	return after - before
}

// TestShardWorldHoldsNoCollector: a verifier shard builds only what it
// verifies. Structurally, neither the World every process shares nor a
// Verifier can hold a core.Collector. By weight, a shard's world and
// verifier take under a quarter of the live heap a collector process's
// world and collector take — the collectors' classify caches and
// sub-batches are what a shard no longer pays for.
func TestShardWorldHoldsNoCollector(t *testing.T) {
	col := reflect.TypeFor[*core.Collector]()
	for _, typ := range []reflect.Type{reflect.TypeFor[World](), reflect.TypeFor[Verifier]()} {
		if reachesType(typ, col) {
			t.Errorf("a %v can hold a %v: the shard's side of the fleet must not", typ, col)
		}
	}
	if !reachesType(reflect.TypeFor[Collector](), col) {
		t.Fatalf("the walk finds no %v in a fleet.Collector either: it proves nothing", col)
	}

	spec := testSpec()
	build := func(process func(*World) (any, error)) func() any {
		return func() any {
			w, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := process(w)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	shard := liveHeapOf(build(func(w *World) (any, error) { return NewVerifier(w, 2, 0, VerifierOptions{}) }))
	collector := liveHeapOf(build(func(w *World) (any, error) { return NewCollector(w, 0) }))
	t.Logf("live heap: shard world + verifier %d B, collector world + collector %d B", shard, collector)
	if shard <= 0 || shard*4 >= collector {
		t.Fatalf("a shard holds %d B, a collector process %d B: want under a quarter", shard, collector)
	}
}

// TestSharedExpansionMatchesDeployment: splitting the collector-free
// plan from the deployment changes no HOP set, threshold or layout. In
// process, a deployment's HOPs are exactly those carrying a collector —
// under partial deployment on the Fig1 path and on a Clos mesh — and at
// fleet scale a world built without collectors answers like the plan of
// a deployment that built them.
func TestSharedExpansionMatchesDeployment(t *testing.T) {
	fig1 := core.DefaultDeployConfig()
	fig1.SkipDomains = map[string]bool{"L": true}
	fig1Dep, err := core.NewDeployment(netsim.Fig1Path(1), packet.NewTable(nil), fig1)
	if err != nil {
		t.Fatal(err)
	}
	keys := netsim.TopoKeys(6)
	var prefixes []packet.Prefix
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	closDep, err := core.NewTopoDeployment(netsim.ClosTopology(91, 2, 2, keys), packet.NewTable(prefixes), core.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, dep := range map[string]*core.Deployment{"fig1-partial": fig1Dep, "clos": closDep} {
		withCollector := slices.Sorted(maps.Keys(dep.Collectors))
		if got := dep.HOPs(); !slices.Equal(got, withCollector) || len(got) == 0 {
			t.Errorf("%s: HOPs() = %v, collectors on %v", name, got, withCollector)
		}
	}
	if hops := fig1Dep.HOPs(); len(hops) != 6 || slices.ContainsFunc(hops, func(h receipt.HOPID) bool { return h == 2 || h == 3 }) {
		t.Errorf("fig1 without L: HOPs %v, want the eight Fig1 HOPs less L's 2 and 3", hops)
	}

	// A world that builds no collectors against a deployment built the
	// in-process way, collectors and all, over the same topology.
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewTopoDeployment(w.Topo, w.Table, w.Spec.deployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if withCollector := slices.Sorted(maps.Keys(dep.Collectors)); !slices.Equal(w.HOPs, withCollector) {
		t.Errorf("world HOPs %v, collectors on %v", w.HOPs, withCollector)
	}
	if got, want := w.Plan.VerifierConfig(), dep.VerifierConfig(); !reflect.DeepEqual(got, want) || len(got.SampleThresholds) != len(w.HOPs) {
		t.Errorf("world verifier config %+v, deployment's %+v", got, want)
	}
	if got, want := w.Plan.KeyLayouts(), dep.KeyLayouts(); !reflect.DeepEqual(got, want) || len(got) != w.Spec.Keys {
		t.Errorf("world key layouts (%d keys) differ from the deployment's (%d keys)", len(got), len(want))
	}
}
