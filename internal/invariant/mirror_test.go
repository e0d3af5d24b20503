package invariant

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/setcrypto"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wire"
)

// run executes a small fault-free four-server run of the given options
// (algorithm, mode, checkpointing) and returns the deployment plus the
// checker Config describing it.
func run(tb testing.TB, opts core.Options) (*core.Deployment, Config) {
	tb.Helper()
	s := sim.New(1)
	const n = 4
	lcfg := ledger.Config{
		Net:       netsim.DefaultLANConfig(),
		Consensus: consensus.PaperParams(),
		Mempool:   mempool.PaperConfig(),
	}
	if opts.Mode == core.Full {
		lcfg.Suite = setcrypto.Ed25519Suite{}
	}
	opts.CollectorLimit, opts.Costs, opts.F = 100, core.PaperCostModel(), (n-1)/2
	sd := shard.Deploy(s, 1, n, lcfg, opts, metrics.LevelThroughput)
	gen := shard.NewGenerator(sd, shard.WorkloadConfig{
		Rate: 400, Duration: 6 * time.Second, FullPayloads: opts.Mode == core.Full,
	})
	sd.Start()
	gen.Start()
	s.RunUntil(25 * time.Second)
	sd.Stop()
	d, rec := sd.Shards[0], sd.Recorders[0]
	if rec.TotalCommitted() == 0 {
		tb.Fatal("small run committed nothing; checker would be vacuous")
	}
	return d, Config{
		Correct:         []wire.NodeID{0, 1, 2, 3},
		Injected:        gen.InjectedIDs(),
		CommittedEpochs: rec.CommittedEpochSizes(),
		Observer:        0,
	}
}

// world is the final state of a run as checkSnaps takes it, detached from
// the servers: a test corrupts one server's view — truncates its history,
// moves its prune horizon, swaps its the_set — without a way into the
// server's own fields.
type world struct {
	snaps map[wire.NodeID]core.Snapshot
	cfg   Config
}

// rejectedIDs are ids no workload injects, booked as admission-rejected in
// every base world so that a mutation can commit one.
var rejectedIDs = []wire.ElementID{{0x4E, 0x0, 0x1}, {0x4E, 0x0, 0x2}}

// baseWorlds are the clean runs mutations start from, built once per
// process: Hashchain with a checkpoint chain and its whole history (epochs
// are their batches' slices, the same on every server), Hashchain pruned to
// the few epochs after its last seal (the_set reaches below the retained
// history), and Vanilla (every server builds its own slice of the shared
// elements).
var baseWorlds = map[string]*world{}

var baseOptions = map[string]core.Options{
	"hashchain": {Algorithm: core.Hashchain, CheckpointInterval: 2},
	"pruned":    {Algorithm: core.Hashchain, CheckpointInterval: 20, Prune: true},
	"vanilla":   {Algorithm: core.Vanilla},
}

var baseNames = []string{"hashchain", "pruned", "vanilla"}

// base returns a private copy of the named clean world.
func base(tb testing.TB, name string) world {
	tb.Helper()
	w := baseWorlds[name]
	if w == nil {
		d, cfg := run(tb, baseOptions[name])
		cfg.Rejected = &wire.IDMap[struct{}]{}
		for _, id := range rejectedIDs {
			cfg.Rejected.Put(id, struct{}{})
		}
		w = &world{snaps: make(map[wire.NodeID]core.Snapshot), cfg: cfg}
		for _, id := range cfg.Correct {
			w.snaps[id] = d.Server(id).Get()
		}
		if pruned := w.snaps[0].PrunedEpochs > 0; pruned != baseOptions[name].Prune || len(filled(w.snaps[0])) < 2 {
			tb.Fatalf("base world %q: pruned %v, %d non-empty epochs retained: tune the run",
				name, pruned, len(filled(w.snaps[0])))
		}
		baseWorlds[name] = w
	}
	c := world{snaps: make(map[wire.NodeID]core.Snapshot), cfg: w.cfg}
	for id, snap := range w.snaps {
		// Epoch structs are copied; their element slices stay the shared
		// ones, as on the servers. the_set is shared until a mutation
		// replaces it (withSet) — nothing writes into one.
		hist := make([]*core.Epoch, len(snap.History))
		for i, ep := range snap.History {
			cp := *ep
			hist[i] = &cp
		}
		snap.History = hist
		c.snaps[id] = snap
	}
	return c
}

// filled returns snap's non-empty epochs.
func filled(snap core.Snapshot) []*core.Epoch {
	var out []*core.Epoch
	for _, ep := range snap.History {
		if len(ep.Elements) > 0 {
			out = append(out, ep)
		}
	}
	return out
}

// withSet replaces id's the_set by a copy without the element skip (if not
// nil) and with the given extra elements. The copy carries no epoch stamps:
// the checker reads none.
func (w world) withSet(id wire.NodeID, skip *wire.ElementID, extra ...*wire.Element) {
	snap := w.snaps[id]
	set := &core.ElemIndex{}
	for eid, e := range theSet(snap.TheSet) {
		if skip == nil || eid != *skip {
			set.Add(e)
		}
	}
	for _, e := range extra {
		set.Add(e)
	}
	snap.TheSet = set
	w.snaps[id] = snap
}

// A mutation corrupts server id's view in w; a and b choose where. It
// reports false when the state has no place for it (and is then left
// unchanged).
type mutation struct {
	name  string
	apply func(w world, id wire.NodeID, a, b int) bool
}

// replace swaps a changed copy of one committed element into its epoch.
func replace(change func(e *wire.Element)) func(world, wire.NodeID, int, int) bool {
	return func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) == 0 {
			return false
		}
		ep := own(eps[a%len(eps)])
		forged := *ep.Elements[b%len(ep.Elements)]
		change(&forged)
		ep.Elements[b%len(ep.Elements)] = &forged
		return true
	}
}

// The mutation vocabulary: what the existing mutation tests do to a server,
// what aims at the shared walk's shortcut, and the benign differences that
// must fall back to the full walk without a verdict.
var mutations = []mutation{
	{"one element fabricated at equal length", replace(func(e *wire.Element) { e.ID[7] ^= 0xFA })},
	{"one element bogus under its own id", replace(func(e *wire.Element) { e.Bogus = true })},
	{"one element admission-rejected", replace(func(e *wire.Element) { e.ID = rejectedIDs[int(e.ID[8])%len(rejectedIDs)] })},
	{"two elements in the other order", func(w world, id wire.NodeID, a, b int) bool {
		for _, ep := range filled(w.snaps[id]) {
			if n := len(ep.Elements); n >= 2 {
				i := b % (n - 1)
				own(ep).Elements[i], ep.Elements[i+1] = ep.Elements[i+1], ep.Elements[i]
				return true
			}
		}
		return false
	}},
	{"an epoch one element short", func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) == 0 {
			return false
		}
		ep := eps[a%len(eps)]
		ep.Elements = ep.Elements[:len(ep.Elements)-1]
		return true
	}},
	{"an element in two epochs", func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) < 2 {
			return false
		}
		from, to := a%len(eps), b%len(eps)
		if from == to {
			to = (to + 1) % len(eps)
		}
		own(eps[to]).Elements[0] = eps[from].Elements[0]
		return true
	}},
	{"an epoch renumbered", func(w world, id wire.NodeID, a, b int) bool {
		snap := w.snaps[id]
		if len(snap.History) == 0 {
			return false
		}
		snap.History[a%len(snap.History)].Number += uint64(b%5) + 1
		return true
	}},
	{"a strict prefix of the history", func(w world, id wire.NodeID, a, b int) bool {
		snap := w.snaps[id]
		if len(snap.History) < 2 {
			return false
		}
		snap.History = snap.History[:len(snap.History)-1-a%min(3, len(snap.History)-1)]
		// A server that stopped there sealed no checkpoint past it.
		total := snap.PrunedEpochs + uint64(len(snap.History))
		snap.Checkpoints = slices.DeleteFunc(slices.Clone(snap.Checkpoints),
			func(ck checkpoint.Checkpoint) bool { return ck.Epoch > total })
		w.snaps[id] = snap
		return true
	}},
	{"pruned to one of its checkpoints", func(w world, id wire.NodeID, a, b int) bool {
		snap := w.snaps[id]
		if snap.PrunedEpochs > 0 || len(snap.Checkpoints) == 0 {
			return false
		}
		ck := snap.Checkpoints[a%len(snap.Checkpoints)]
		if ck.Epoch > uint64(len(snap.History)) {
			return false
		}
		snap.History, snap.PrunedEpochs, snap.PrunedElements = snap.History[ck.Epoch:], ck.Epoch, ck.Elements
		w.snaps[id] = snap
		return true
	}},
	{"a bogus element smuggled into the_set", func(w world, id wire.NodeID, a, b int) bool {
		w.withSet(id, nil, &wire.Element{ID: wire.ElementID{0xB0, byte(a), byte(b)}, Size: 100, Bogus: true})
		return true
	}},
	{"an un-injected element smuggled into the_set", func(w world, id wire.NodeID, a, b int) bool {
		w.withSet(id, nil, &wire.Element{ID: wire.ElementID{0x57, byte(a), byte(b)}, Size: 100})
		return true
	}},
	{"a committed element its server never added", func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) == 0 {
			return false
		}
		ep := eps[a%len(eps)]
		w.withSet(id, &ep.Elements[b%len(ep.Elements)].ID)
		return true
	}},
	{"an epoch in a slice of its own", func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) == 0 {
			return false
		}
		own(eps[a%len(eps)])
		return true
	}},
	{"an epoch of decoded copies", func(w world, id wire.NodeID, a, b int) bool {
		eps := filled(w.snaps[id])
		if len(eps) == 0 {
			return false
		}
		ep := own(eps[a%len(eps)])
		for i, e := range ep.Elements {
			cp := *e
			ep.Elements[i] = &cp
		}
		return true
	}},
}

// mutate applies the named mutation and fails the test if it found no place.
func mutate(t *testing.T, w world, name string, id wire.NodeID, a, b int) {
	t.Helper()
	for _, m := range mutations {
		if m.name == name {
			if !m.apply(w, id, a, b) {
				t.Fatalf("mutation %q found nothing to corrupt on server %d", name, id)
			}
			return
		}
	}
	t.Fatalf("no mutation %q", name)
}

// blames reports whether a violation line is about server id: its own
// finding, or its divergence from the reference.
func blames(line string, id wire.NodeID) bool {
	return strings.HasPrefix(line, fmt.Sprintf("server %d:", id)) ||
		strings.HasPrefix(line, fmt.Sprintf("servers %d and ", id))
}

// Mutations aimed at the shortcut: a server that differs from the reference
// in the least a slice comparison could miss, and a server that mirrors the
// reference while its the_set does not. Each must be detected, attributed
// to the corrupted server only, and reported exactly as the
// one-server-at-a-time oracle reports it; the benign differences must fall
// back to the full walk and stay green.
func TestMirrorMutations(t *testing.T) {
	cases := []struct {
		name   string
		bases  []string
		server wire.NodeID
		muts   []string
		want   []string // each must appear in some line; none = must stay green
	}{
		{"one element differs at equal length", baseNames, 2,
			[]string{"one element fabricated at equal length"},
			[]string{"server 2: fabricated element", "servers 2 and 0 diverge at epoch", "is not in the set"}},
		{"order only", baseNames, 1,
			[]string{"two elements in the other order"},
			[]string{"servers 1 and 0 diverge at epoch"}},
		{"length only", baseNames, 3,
			[]string{"an epoch one element short"},
			[]string{"servers 3 and 0 diverge at epoch", " elements"}},
		{"bogus under a committed id", baseNames, 2,
			[]string{"one element bogus under its own id"},
			[]string{"server 2: invalid (bogus) element"}},
		{"rejected element committed", baseNames, 1,
			[]string{"one element admission-rejected"},
			[]string{"server 1: admission-rejected element"}},
		{"duplicate across epochs", baseNames, 3,
			[]string{"an element in two epochs"},
			[]string{"server 3: element", "duplicated"}},
		{"mirror with a bogus element in the_set", baseNames, 3,
			[]string{"a bogus element smuggled into the_set"},
			[]string{"server 3: invalid (bogus) element", "in the set below the prune horizon"}},
		{"mirror with an un-injected element in the_set", baseNames, 2,
			[]string{"an un-injected element smuggled into the_set"},
			[]string{"server 2: fabricated element", "in the set: never injected"}},
		{"epoch holds an element its server never added", baseNames, 1,
			[]string{"a committed element its server never added"},
			[]string{"server 1: element", "is not in the set"}},
		{"strict prefix", baseNames, 2,
			[]string{"a strict prefix of the history"}, nil},
		{"strict prefix, corrupted", baseNames, 2,
			[]string{"a strict prefix of the history", "one element fabricated at equal length"},
			[]string{"server 2: fabricated element"}},
		{"differing prune horizons", []string{"hashchain"}, 1,
			[]string{"pruned to one of its checkpoints"}, nil},
		{"the reference itself pruned further", []string{"hashchain"}, 0,
			[]string{"pruned to one of its checkpoints"}, nil},
		{"differing prune horizons, corrupted", []string{"hashchain"}, 1,
			[]string{"pruned to one of its checkpoints", "an element in two epochs"},
			[]string{"server 1: element", "duplicated"}},
		{"same elements, own slice", baseNames, 2,
			[]string{"an epoch in a slice of its own"}, nil},
		{"same elements, decoded copies", baseNames, 2,
			[]string{"an epoch of decoded copies"}, nil},
		{"the reference corrupted", baseNames, 0,
			[]string{"one element fabricated at equal length"},
			[]string{"server 0: fabricated element"}},
	}
	for _, tc := range cases {
		for _, name := range tc.bases {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				w := base(t, name)
				for i, m := range tc.muts {
					mutate(t, w, m, tc.server, 1+i, 2+i)
				}
				rep := agreeWithOracle(t, w)
				lines, _ := verdicts(rep)
				if len(tc.want) == 0 {
					if len(lines) != 0 {
						t.Fatalf("a benign difference was flagged:\n%s", strings.Join(lines, "\n"))
					}
					return
				}
				for _, want := range tc.want {
					if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, want) }) {
						t.Errorf("no violation mentions %q:\n%s", want, strings.Join(lines, "\n"))
					}
				}
				for _, line := range lines {
					// A corrupted reference makes every other server diverge
					// from it; otherwise only the corrupted server is named.
					if !blames(line, tc.server) && !(tc.server == 0 && strings.Contains(line, "and 0 diverge")) {
						t.Errorf("violation blames another server than %d: %s", tc.server, line)
					}
				}
			})
		}
	}
}

// A Byzantine server is outside cfg.Correct and is never the reference,
// however long its history: correct servers are not measured against it.
func TestByzantineLongestHistoryIsNeverTheReference(t *testing.T) {
	w := base(t, "hashchain")
	w.cfg.Correct = []wire.NodeID{0, 1, 2}
	byz := w.snaps[3]
	junk := &wire.Element{ID: wire.ElementID{0xBB, 0x01}, Size: 438, Bogus: true}
	byz.History = append(byz.History, &core.Epoch{
		Number: uint64(len(byz.History)) + 1, Elements: []*wire.Element{junk}, Hash: []byte("forged"),
	})
	own(byz.History[0]).Elements[0] = junk
	w.snaps[3] = byz
	if rep := agreeWithOracle(t, w); rep.count() != 0 {
		t.Fatalf("correct servers were measured against a Byzantine one: %v", rep.err())
	}
	// The same state with server 3 declared correct is its violation, and its alone.
	w.cfg.Correct = []wire.NodeID{0, 1, 2, 3}
	lines, _ := verdicts(agreeWithOracle(t, w))
	if len(lines) == 0 {
		t.Fatal("the forged history went unnoticed once its server counted as correct")
	}
	for _, line := range lines {
		// Server 3 is now the longest, so the reference: its own findings name
		// it, and the others' divergence from it names it as the second server.
		if !strings.Contains(line, "server 3:") && !strings.Contains(line, "and 3 diverge") {
			t.Errorf("violation is not about server 3: %s", line)
		}
	}
}

// The gain as a count, which no host changes: a clean run costs one
// per-element visit per element of the reference's history — not one per
// (element × server) — whenever the servers hold the same element objects:
// as one shared slice (Hashchain and Compresschain, modeled: the epoch is
// the batch) or as equal pointer sequences (Vanilla). Servers that decoded
// their own copies (Compresschain, full mode) are each walked in full.
func TestCleanRunVisitsEachElementOnce(t *testing.T) {
	cases := []struct {
		name    string
		opts    core.Options
		perElem int // visits per element of the history
	}{
		{"hashchain", core.Options{Algorithm: core.Hashchain}, 1},
		{"compresschain", core.Options{Algorithm: core.Compresschain}, 1},
		{"vanilla", core.Options{Algorithm: core.Vanilla}, 1},
		{"hashchain full", core.Options{Algorithm: core.Hashchain, Mode: core.Full}, 1},
		{"compresschain full", core.Options{Algorithm: core.Compresschain, Mode: core.Full}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, cfg := run(t, tc.opts)
			if err := Check(d, cfg); err != nil {
				t.Fatalf("clean run violates invariants: %v", err)
			}
			w := world{snaps: make(map[wire.NodeID]core.Snapshot), cfg: cfg}
			elements := 0
			for _, id := range cfg.Correct {
				w.snaps[id] = d.Server(id).Get()
				if got, want := len(w.snaps[id].History), len(w.snaps[0].History); got != want {
					t.Fatalf("server %d ends with %d epochs, server 0 with %d: tune the run", id, got, want)
				}
			}
			for _, ep := range w.snaps[0].History {
				elements += len(ep.Elements)
			}
			if elements == 0 {
				t.Fatal("empty history")
			}
			rep := agreeWithOracle(t, w)
			if rep.count() != 0 {
				t.Fatalf("clean run violates invariants: %v", rep.err())
			}
			if rep.visited != tc.perElem*elements {
				t.Fatalf("%d per-element visits for a history of %d elements on %d servers, want %d×",
					rep.visited, elements, len(cfg.Correct), tc.perElem)
			}
		})
	}
}

// FuzzCheckerMirror is the differential test of the shared walk: a base
// world, then up to four mutations from the vocabulary, each on a server
// and at a place the input chooses — so corruptions combine, hit the
// reference, hit two servers alike — and the shared walk's verdicts must be
// the oracle's, line for line.
func FuzzCheckerMirror(f *testing.F) {
	for b := range baseNames {
		f.Add([]byte{byte(b)})
		for m := range mutations {
			f.Add([]byte{byte(b), byte(m), 1, 3, 5})
			f.Add([]byte{byte(b), byte(m), 0, 0, 0, byte(m), 2, 0, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := base(t, baseNames[int(data[0])%len(baseNames)])
		applied := 0
		for data = data[1:]; len(data) >= 4 && applied < 4; data = data[4:] {
			m := mutations[int(data[0])%len(mutations)]
			if m.apply(w, w.cfg.Correct[int(data[1])%len(w.cfg.Correct)], int(data[2]), int(data[3])) {
				applied++
			}
		}
		if rep := agreeWithOracle(t, w); applied == 0 && rep.count() != 0 {
			t.Fatalf("clean world violates invariants: %v", rep.err())
		}
	})
}
