package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// fullSpec exercises every field of the schema.
func fullSpec() ScenarioSpec {
	return ScenarioSpec{
		Name:         "wan stress",
		Group:        "wan",
		Algorithm:    AlgHashchain,
		Collector:    500,
		Light:        true,
		Servers:      16,
		Rate:         25000,
		SendFor:      Duration(40 * time.Second),
		Horizon:      Duration(200 * time.Second),
		NetworkDelay: Duration(30 * time.Millisecond),
		Bandwidth:    12.5e6,
		Seed:         7,
		Scale:        0.5,
		Metrics:      MetricsStages,
		Crypto:       CryptoModeled,
		Workload: &WorkloadSpec{
			SizeMean: 438, SizeStdDev: 753.5, SizeMin: 96, SizeMax: 16384,
			Tick: Duration(5 * time.Millisecond),
		},
		Byzantine: &ByzantineSpec{
			Faulty:      2,
			Behaviors:   []string{BehaviorWithholdBatches, BehaviorCorruptProofs},
			InjectCount: 0,
		},
		Faults: &FaultSpec{Events: []FaultEventSpec{
			{At: Duration(5 * time.Second), Action: FaultCrash, Nodes: []int{15}},
			{At: Duration(8 * time.Second), Action: FaultPartition,
				Groups: [][]int{{0, 1, 2}, {3, 4}}},
			{At: Duration(12 * time.Second), Action: FaultHeal},
			{At: Duration(15 * time.Second), Action: FaultRestart, Nodes: []int{15}},
			{Action: FaultLink, From: []int{0}, To: []int{1}, Drop: 0.1,
				Duplicate: 0.05, Reorder: 0.2,
				ReorderDelay: Duration(10 * time.Millisecond),
				Delay:        Duration(40 * time.Millisecond)},
		}},
	}
}

func TestRoundTripIdentity(t *testing.T) {
	// encode → decode → validate is the identity on a defaulted spec.
	for _, sp := range []ScenarioSpec{
		fullSpec().WithDefaults(),
		vanilla().WithDefaults(),
		withRate(1250, hash(100)).WithDefaults(),
	} {
		if err := sp.Validate(); err == nil || sp.Rate > 0 {
			var buf bytes.Buffer
			if err := Encode(&buf, []ScenarioSpec{sp}); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v\nspec: %+v", err, sp)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], sp) {
				t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", sp, got[0])
			}
		}
	}
}

func TestDecodeSingleObjectAndArray(t *testing.T) {
	one := `{"algorithm": "hashchain", "rate": 1250}`
	cells, err := Decode(strings.NewReader(one))
	if err != nil {
		t.Fatalf("single object: %v", err)
	}
	if len(cells) != 1 || cells[0].Algorithm != AlgHashchain || cells[0].Servers != 10 {
		t.Fatalf("single object decoded wrong: %+v", cells)
	}
	arr := `[{"algorithm": "vanilla", "rate": 500}, {"algorithm": "compresschain", "rate": 500, "collector": 500}]`
	cells, err = Decode(strings.NewReader(arr))
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	if len(cells) != 2 || cells[1].Collector != 500 {
		t.Fatalf("array decoded wrong: %+v", cells)
	}
}

func TestDecodeRejectsUnknownFieldsAndBadCells(t *testing.T) {
	cases := []string{
		`{"algorithm": "hashchain", "rate": 1250, "colector": 100}`,      // typo
		`{"algorithm": "blockchain", "rate": 1250}`,                      // unknown alg
		`{"algorithm": "hashchain"}`,                                     // no rate
		`[]`,                                                             // empty document
		`{"algorithm": "vanilla", "rate": 100, "light": true}`,           // vanilla light
		`{"algorithm": "vanilla", "rate": 100, "intra_workers": 2}`,      // field of the deleted partitioned executor
		`{"algorithm": "hashchain", "rate": 1, "metrics": "everything"}`, // bad level
		// A document is one JSON value: nothing may follow it.
		`{"algorithm": "vanilla", "rate": 100}` + "\n" + `{"algorithm": "hashchain", "rate": 100}`,
		`{"algorithm": "vanilla", "rate": 100} trailing garbage`,
		`{"algorithm": "vanilla", "rate": 100}}`,
		`[{"algorithm": "vanilla", "rate": 100}] []`,
	}
	for _, doc := range cases {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("Decode accepted %s", doc)
		}
	}
	// A typo in a single-object document must surface the unknown-field
	// error, not the generic object-into-array mismatch.
	_, err := Decode(strings.NewReader(`{"algorthm": "hashchain", "rate": 100}`))
	if err == nil || !strings.Contains(err.Error(), "algorthm") {
		t.Errorf("single-object typo error unhelpful: %v", err)
	}
}

func TestWorkloadDefaultsFillPartialSpecs(t *testing.T) {
	sp := ScenarioSpec{Algorithm: AlgHashchain, Rate: 100,
		Workload: &WorkloadSpec{SizeMean: 600}}.WithDefaults()
	w := sp.Workload
	if w.SizeMean != 600 || w.SizeStdDev != 753.5 || w.SizeMin != 96 ||
		w.SizeMax != 16384 || w.Tick.Std() != 10*time.Millisecond {
		t.Fatalf("partial workload not defaulted: %+v", w)
	}
	if sp.WithDefaults().Workload.SizeMean != 600 {
		t.Fatal("workload defaulting not idempotent")
	}
}

func TestDurationForms(t *testing.T) {
	var sp ScenarioSpec
	doc := `{"algorithm": "hashchain", "rate": 1, "send_for": 40, "network_delay": "30ms"}`
	if err := json.Unmarshal([]byte(doc), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.SendFor.Std() != 40*time.Second {
		t.Fatalf("numeric seconds: got %v", sp.SendFor.Std())
	}
	if sp.NetworkDelay.Std() != 30*time.Millisecond {
		t.Fatalf("duration string: got %v", sp.NetworkDelay.Std())
	}
	blob, err := json.Marshal(Duration(30 * time.Millisecond))
	if err != nil || string(blob) != `"30ms"` {
		t.Fatalf("marshal: %s, %v", blob, err)
	}
}

func TestWithDefaultsIdempotent(t *testing.T) {
	for _, sp := range []ScenarioSpec{
		{Algorithm: AlgHashchain, Rate: 1250},
		{Algorithm: AlgVanilla, Rate: 500},
		fullSpec(),
		{Algorithm: AlgCompresschain, Rate: 1,
			Byzantine: &ByzantineSpec{Faulty: 1, Behaviors: []string{BehaviorInjectInvalid}}},
	} {
		once := sp.WithDefaults()
		twice := once.WithDefaults()
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("WithDefaults not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
		}
		if err := once.Validate(); err != nil {
			t.Fatalf("defaulted spec invalid: %v", err)
		}
	}
	d := ScenarioSpec{Algorithm: AlgVanilla, Rate: 1}.WithDefaults()
	if d.Collector != 0 {
		t.Fatalf("Vanilla must keep collector 0, got %d", d.Collector)
	}
	d = ScenarioSpec{Algorithm: AlgHashchain, Rate: 1,
		Byzantine: &ByzantineSpec{Faulty: 1, Behaviors: []string{BehaviorInjectInvalid}}}.WithDefaults()
	if d.Byzantine.InjectCount != 3 {
		t.Fatalf("inject-invalid default count = %d, want 3", d.Byzantine.InjectCount)
	}
}

func TestValidateCatchesByzantineMistakes(t *testing.T) {
	base := func() ScenarioSpec { return withRate(100, hash(100)).WithDefaults() }
	sp := base()
	sp.Byzantine = &ByzantineSpec{Faulty: 10, Behaviors: []string{BehaviorSilent}}
	if err := sp.Validate(); err == nil {
		t.Error("faulty == servers accepted")
	}
	sp = base()
	sp.Byzantine = &ByzantineSpec{Faulty: 1, Behaviors: []string{"explode"}}
	if err := sp.Validate(); err == nil {
		t.Error("unknown behavior accepted")
	}
	sp = base()
	sp.Byzantine = &ByzantineSpec{Faulty: 1}
	if err := sp.Validate(); err == nil {
		t.Error("faulty without behaviors accepted")
	}
}

// The offered-load bound keeps every pool's 31-bit numbering and every
// element index's 32-bit locators out of reach: 2 servers send at most 5
// transactions per element, so 2·10⁸ elements are exactly the limit, and
// one element more, or an envelope peak or a scale that adds one, is past
// it. The error names the limit.
func TestValidateBoundsOfferedLoad(t *testing.T) {
	atBound := func() ScenarioSpec {
		return ScenarioSpec{Algorithm: AlgVanilla, Servers: 2, Rate: 2e6, SendFor: Duration(100 * time.Second)}.WithDefaults()
	}
	sp := atBound()
	if n := sp.offeredTxs(); n != maxOfferedTxs {
		t.Fatalf("offered %.0f, want exactly the limit %d", n, maxOfferedTxs)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("spec at the bound refused: %v", err)
	}
	halfRateDoublePeak := atBound()
	halfRateDoublePeak.Rate /= 2
	halfRateDoublePeak.Open = &OpenSpec{Envelope: []RatePhaseSpec{{From: Duration(time.Second), Mult: 2}}}
	if err := halfRateDoublePeak.Validate(); err != nil {
		t.Fatalf("half the rate at an envelope peak of 2 refused: %v", err)
	}
	past := map[string]func(*ScenarioSpec){
		"one element more":    func(s *ScenarioSpec) { s.Rate += 0.01 },
		"a longer window":     func(s *ScenarioSpec) { s.SendFor += Duration(time.Millisecond) },
		"an envelope peak":    func(s *ScenarioSpec) { s.Open = &OpenSpec{Envelope: []RatePhaseSpec{{Mult: 1.000001}}} },
		"a larger scale":      func(s *ScenarioSpec) { s.Scale = 1.000001 },
		"a third server":      func(s *ScenarioSpec) { s.Servers = 3 },
		"an overflowing load": func(s *ScenarioSpec) { s.Rate = math.MaxFloat64 },
	}
	for name, change := range past {
		sp := atBound()
		change(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), "limit of 1000000000") {
			t.Errorf("%s: Validate = %v, want the offered-load error naming the limit", name, err)
		}
	}
}

// The injection loop fires once per client per tick, so the same 10⁹ limit
// bounds clients × send window × scale ÷ tick: 4 servers × 2 shards
// sending for 10 s at an 80 ns tick are exactly the limit, and a shorter
// tick, a longer window, a larger scale or one more shard is past it.
func TestValidateBoundsInjectionTicks(t *testing.T) {
	atBound := func() ScenarioSpec {
		return ScenarioSpec{Algorithm: AlgVanilla, Servers: 4, Shards: 2, Rate: 1, SendFor: Duration(10 * time.Second),
			Workload: &WorkloadSpec{Tick: Duration(80 * time.Nanosecond)}}.WithDefaults()
	}
	sp := atBound()
	if n := sp.injectionTicks(); n != maxOfferedTxs {
		t.Fatalf("%.0f ticks, want exactly the limit %d", n, maxOfferedTxs)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("spec at the bound refused: %v", err)
	}
	past := map[string]func(*ScenarioSpec){
		"a shorter tick":  func(s *ScenarioSpec) { s.Workload.Tick-- },
		"a longer window": func(s *ScenarioSpec) { s.SendFor += Duration(time.Nanosecond) },
		"a larger scale":  func(s *ScenarioSpec) { s.Scale = 1.000001 },
		"a third shard":   func(s *ScenarioSpec) { s.Shards = 3 },
		"the default tick": func(s *ScenarioSpec) {
			s.Workload = nil
			s.SendFor = Duration(time.Duration(maxOfferedTxs/8+1) * defaultTick)
		},
	}
	for name, change := range past {
		sp := atBound()
		change(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), "injection ticks exceed the limit of 1000000000") {
			t.Errorf("%s: Validate = %v, want the injection-tick error naming the limit", name, err)
		}
	}
	// A 1 ns tick over a one-second window: 4·10⁹ ticks.
	doc := `{"algorithm":"vanilla","servers":4,"rate":40,"send_for":"1s","workload":{"tick":"1ns"}}`
	if _, err := Decode(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "injection ticks") {
		t.Errorf("Decode(%s) = %v, want the injection-tick error", doc, err)
	}
}

// Consensus cuts a block every blockInterval until the horizon, loaded or
// not, so a long horizon is refused at load time instead of idling for
// minutes: ten servers for 10⁶ blocks are exactly the limit, and a longer
// horizon, an eleventh server, a second shard, or an unset horizon behind a
// long send window is past it. The error names the limit.
func TestValidateBoundsIdleConsensus(t *testing.T) {
	atBound := func() ScenarioSpec {
		return ScenarioSpec{Algorithm: AlgVanilla, Servers: 10, Rate: 1, SendFor: Duration(time.Second),
			Horizon: Duration(1_000_000 * blockInterval)}.WithDefaults()
	}
	sp := atBound()
	if w := sp.idleConsensusWork(); w != maxIdleConsensusWork {
		t.Fatalf("%.0f idle messages, want exactly the limit %d", w, maxIdleConsensusWork)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("spec at the bound refused: %v", err)
	}
	past := map[string]func(*ScenarioSpec){
		"a longer horizon": func(s *ScenarioSpec) { s.Horizon += Duration(time.Millisecond) },
		"an 11th server":   func(s *ScenarioSpec) { s.Servers = 11 },
		"a second shard":   func(s *ScenarioSpec) { s.Shards = 2 },
		"the derived horizon": func(s *ScenarioSpec) {
			s.Horizon = 0
			s.SendFor = Duration(1_000_000*blockInterval - DefaultDrain + time.Millisecond)
			s.Scale = 1e-6
		},
	}
	for name, change := range past {
		sp := atBound()
		change(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), "over the limit of 100000000") {
			t.Errorf("%s: Validate = %v, want the idle-consensus error naming the limit", name, err)
		}
	}
	// The horizons that ran for 7 s and for more than two minutes: four
	// servers for 200,000 s are under the limit, ten for 2,000,000 s over it.
	short := `{"algorithm":"vanilla","servers":4,"rate":1,"send_for":"1s","horizon":"200000s"}`
	if _, err := Decode(strings.NewReader(short)); err != nil {
		t.Errorf("Decode(%s) = %v", short, err)
	}
	long := `{"algorithm":"vanilla","servers":10,"rate":1,"send_for":"1s","horizon":"2000000s"}`
	if _, err := Decode(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "idle consensus") {
		t.Errorf("Decode(%s) = %v, want the idle-consensus error", long, err)
	}
}

// An element's size is 32 bits wide: size_min and size_max may reach
// 2³¹−1 and no further, so no spec makes a generator wrap a sampled size.
func TestValidateBoundsElementSize(t *testing.T) {
	if maxElementSize != wire.MaxElementSize {
		t.Fatalf("maxElementSize %d, want wire.MaxElementSize %d", maxElementSize, wire.MaxElementSize)
	}
	withSizes := func(lo, hi int) ScenarioSpec {
		sp := withRate(100, hash(100))
		sp.Workload = &WorkloadSpec{SizeMin: lo, SizeMax: hi}
		return sp.WithDefaults()
	}
	if sp := withSizes(96, math.MaxInt32); sp.Validate() != nil {
		t.Fatalf("size_max 2^31-1 refused: %v", sp.Validate())
	}
	if sp := withSizes(math.MaxInt32, math.MaxInt32); sp.Validate() != nil {
		t.Fatalf("size_min = size_max = 2^31-1 refused: %v", sp.Validate())
	}
	for name, sp := range map[string]ScenarioSpec{
		"size_max 2^31":            withSizes(96, math.MaxInt32+1),
		"size_min = size_max 2^31": withSizes(math.MaxInt32+1, math.MaxInt32+1),
	} {
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "at most 2147483647") {
			t.Errorf("%s: Validate = %v, want the element-size error", name, err)
		}
	}
}

func TestLabels(t *testing.T) {
	cases := map[string]ScenarioSpec{
		"Vanilla":                 vanilla(),
		"Compresschain c=100":     compress(100),
		"Hashchain c=500":         hash(500),
		"Hashchain Light c=500":   light(hash(500)),
		"Compresschain Light c=5": light(compress(5)),
	}
	for want, sp := range cases {
		if got := sp.Label(); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
	}
	if got := named("custom", hash(100)).Label(); got != "custom" {
		t.Errorf("named Label() = %q", got)
	}
}

func TestSetAndParseAxis(t *testing.T) {
	sp := withRate(100, hash(100))
	for _, kv := range [][2]string{
		{"servers", "16"}, {"delay", "30ms"}, {"crypto", "full"},
		{"behaviors", "withhold-batches+corrupt-proofs"}, {"faulty", "2"},
		{"rate", "5000"}, {"light", "true"}, {"send_for", "40"},
	} {
		if err := Set(&sp, kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s=%s): %v", kv[0], kv[1], err)
		}
	}
	if sp.Servers != 16 || sp.NetworkDelay.Std() != 30*time.Millisecond ||
		sp.Crypto != CryptoFull || sp.Byzantine.Faulty != 2 ||
		len(sp.Byzantine.Behaviors) != 2 || sp.Rate != 5000 || !sp.Light ||
		sp.SendFor.Std() != 40*time.Second {
		t.Fatalf("Set results wrong: %+v byz=%+v", sp, sp.Byzantine)
	}
	if err := Set(&sp, "warp", "9"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseAxis("servers=4,8,16"); err != nil {
		t.Fatalf("ParseAxis: %v", err)
	}
	for _, bad := range []string{"servers", "servers=", "=4", "servers=4,,8", "servers=x", "iw=1,2"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

// The three spec JSON fields Set once lacked a key for: each sets its
// field, and the admission ones default the policy as watermark does.
func TestSetSyncAndDelayKeys(t *testing.T) {
	for _, tc := range []struct {
		key, value string
		ok         func(s ScenarioSpec) bool
	}{
		{"sync_chunk_bytes", "16384", func(s ScenarioSpec) bool { return s.SyncChunkBytes == 16384 }},
		{"max_delay", "2s", func(s ScenarioSpec) bool {
			return s.Admission != nil && s.Admission.MaxDelay.Std() == 2*time.Second &&
				s.Admission.Policy == AdmissionReject
		}},
		{"max_deferred", "64", func(s ScenarioSpec) bool {
			return s.Admission != nil && s.Admission.MaxDeferred == 64 &&
				s.Admission.Policy == AdmissionReject
		}},
	} {
		t.Run(tc.key, func(t *testing.T) {
			var s ScenarioSpec
			if err := Set(&s, tc.key, tc.value); err != nil {
				t.Fatalf("Set(%s=%s): %v", tc.key, tc.value, err)
			}
			if !tc.ok(s) {
				t.Fatalf("Set(%s=%s) left %+v admission=%+v", tc.key, tc.value, s, s.Admission)
			}
			if err := Set(&s, tc.key, "x"); err == nil {
				t.Fatalf("Set(%s=x) accepted", tc.key)
			}
		})
	}
}

// Every key the unknown-key error lists is one Set accepts.
func TestEveryOverrideKeySets(t *testing.T) {
	samples := map[string]string{
		"name": "x", "group": "g", "algorithm": "hashchain", "collector": "100",
		"light": "true", "servers": "4", "shards": "2",
		"transport": "mesh", "fanout": "8", "rate": "100", "send_for": "10s",
		"horizon": "20s", "network_delay": "30ms", "bandwidth": "1e9", "seed": "7",
		"scale": "0.5", "metrics": "stages", "crypto": "full", "faulty": "1",
		"behaviors": "withhold-batches", "inject_count": "3",
		"checkpoint_interval": "4", "prune": "true", "heap_ceiling_mb": "512",
		"sync_chunk_bytes": "16384", "zipf": "1.1", "churn_on": "10s",
		"churn_off": "5s", "admission": "delay", "watermark": "0.8",
		"max_txs": "400", "max_bytes": "1000000", "max_delay": "2s",
		"max_deferred": "64", "drop": "0.01", "duplicate": "0.01", "reorder": "0.01",
	}
	for _, k := range overrideKeys {
		v, ok := samples[k]
		if !ok {
			t.Errorf("override key %q has no sample value here", k)
			continue
		}
		var s ScenarioSpec
		if err := Set(&s, k, v); err != nil {
			t.Errorf("Set(%s=%s): %v", k, v, err)
		}
	}
}

func TestExpandCrossProduct(t *testing.T) {
	ax1, _ := ParseAxis("servers=4,8")
	ax2, _ := ParseAxis("delay=0s,30ms,100ms")
	cells, err := Expand([]ScenarioSpec{withRate(100, hash(100))}, ax1, ax2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("len = %d, want 6", len(cells))
	}
	// Last axis varies fastest; names record the varied values.
	if cells[0].Servers != 4 || cells[1].Servers != 4 || cells[2].Servers != 4 ||
		cells[3].Servers != 8 {
		t.Fatalf("outer axis order wrong: %+v", cells)
	}
	if cells[1].NetworkDelay.Std() != 30*time.Millisecond {
		t.Fatalf("inner axis order wrong: %+v", cells[1])
	}
	if !strings.Contains(cells[5].Name, "servers=8") || !strings.Contains(cells[5].Name, "delay=100ms") {
		t.Fatalf("name not tagged: %q", cells[5].Name)
	}
	// A single-valued axis overrides without tagging names.
	one, _ := ParseAxis("crypto=full")
	cells, err = Expand([]ScenarioSpec{named("x", hash(100))}, one)
	if err != nil || len(cells) != 1 || cells[0].Crypto != CryptoFull || cells[0].Name != "x" {
		t.Fatalf("single-value axis: %+v, %v", cells, err)
	}
}

func TestExpandCopiesByzantine(t *testing.T) {
	base := withRate(100, hash(100))
	base.Byzantine = &ByzantineSpec{Faulty: 1, Behaviors: []string{BehaviorSilent}}
	ax, _ := ParseAxis("faulty=1,2")
	cells, err := Expand([]ScenarioSpec{base}, ax)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Byzantine.Faulty != 1 || cells[1].Byzantine.Faulty != 2 {
		t.Fatalf("byzantine aliasing across cells: %+v / %+v", cells[0].Byzantine, cells[1].Byzantine)
	}
	if base.Byzantine.Faulty != 1 {
		t.Fatalf("base mutated: %+v", base.Byzantine)
	}
}

func TestSuggest(t *testing.T) {
	vocab := []string{"fig1", "fig2left", "fig3a", "fig3b", "fig4", "table2"}
	if got := Suggest("fig3", vocab); len(got) < 2 || got[0] != "fig3a" {
		t.Fatalf("Suggest(fig3) = %v", got)
	}
	if got := Suggest("figg4", vocab); len(got) == 0 || got[0] != "fig4" {
		t.Fatalf("Suggest(figg4) = %v", got)
	}
	if got := Suggest("tabel2", vocab); len(got) == 0 || got[0] != "table2" {
		t.Fatalf("Suggest(tabel2) = %v", got)
	}
	if got := Suggest("zzzzzzz", vocab); len(got) != 0 {
		t.Fatalf("Suggest(zzzzzzz) = %v", got)
	}
}
