package spec

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// Parse errors of the value types an override key takes.
const (
	errInt      = `strconv.Atoi: parsing "x": invalid syntax`
	errInt64    = `strconv.ParseInt: parsing "x": invalid syntax`
	errFloat    = `strconv.ParseFloat: parsing "x": invalid syntax`
	errBool     = `strconv.ParseBool: parsing "x": invalid syntax`
	errDuration = `want a duration ("30ms") or seconds, got "x"`
)

// linkEvent is the one time-zero all-links event the drop/duplicate/reorder
// keys create on a spec without faults.
func linkEvent(ev FaultEventSpec) *FaultSpec {
	ev.Action = FaultLink
	return &FaultSpec{Events: []FaultEventSpec{ev}}
}

// TestSetPinsEveryKey pins Set's whole behaviour key by key: every
// canonical key and alias, applied to a zero spec, yields exactly the
// listed spec for a valid value, and for an unparsable "x" returns the
// exact wrapped error and leaves the spec untouched (no nested block is
// created before the value parses). String-valued keys take any value.
func TestSetPinsEveryKey(t *testing.T) {
	sec := func(d time.Duration) Duration { return Duration(d) }
	for _, tc := range []struct {
		keys  []string
		value string
		want  ScenarioSpec
		err   string // parse error of "x"; empty for string-valued keys
	}{
		{[]string{"name"}, "Wan Stress", ScenarioSpec{Name: "Wan Stress"}, ""},
		{[]string{"group"}, "Fig 3", ScenarioSpec{Group: "Fig 3"}, ""},
		{[]string{"algorithm", "alg"}, "HashChain", ScenarioSpec{Algorithm: "hashchain"}, ""},
		{[]string{"collector", "c"}, "500", ScenarioSpec{Collector: 500}, errInt},
		{[]string{"light"}, "true", ScenarioSpec{Light: true}, errBool},
		{[]string{"servers", "n"}, "16", ScenarioSpec{Servers: 16}, errInt},
		{[]string{"shards", "s"}, "4", ScenarioSpec{Shards: 4}, errInt},
		{[]string{"intra_workers", "iw"}, "2", ScenarioSpec{IntraWorkers: 2}, errInt},
		{[]string{"transport"}, "MESH", ScenarioSpec{Transport: "mesh"}, ""},
		{[]string{"fanout"}, "8", ScenarioSpec{Fanout: 8}, errInt},
		{[]string{"rate"}, "2.5e3", ScenarioSpec{Rate: 2500}, errFloat},
		{[]string{"send_for", "sendfor", "send"}, "40", ScenarioSpec{SendFor: sec(40 * time.Second)}, errDuration},
		{[]string{"horizon"}, "90s", ScenarioSpec{Horizon: sec(90 * time.Second)}, errDuration},
		{[]string{"network_delay", "delay"}, "30ms", ScenarioSpec{NetworkDelay: sec(30 * time.Millisecond)}, errDuration},
		{[]string{"bandwidth"}, "1e8", ScenarioSpec{Bandwidth: 1e8}, errFloat},
		{[]string{"seed"}, "-7", ScenarioSpec{Seed: -7}, errInt64},
		{[]string{"scale"}, "0.5", ScenarioSpec{Scale: 0.5}, errFloat},
		{[]string{"metrics"}, "Stages", ScenarioSpec{Metrics: "stages"}, ""},
		{[]string{"crypto"}, "FULL", ScenarioSpec{Crypto: "full"}, ""},
		{[]string{"faulty"}, "2", ScenarioSpec{Byzantine: &ByzantineSpec{Faulty: 2}}, errInt},
		{[]string{"behaviors", "behavior"}, "withhold-batches+Silent",
			ScenarioSpec{Byzantine: &ByzantineSpec{Faulty: 1, Behaviors: []string{"withhold-batches", "Silent"}}}, ""},
		{[]string{"inject_count"}, "5", ScenarioSpec{Byzantine: &ByzantineSpec{Faulty: 1, InjectCount: 5}}, errInt},
		{[]string{"checkpoint_interval", "ckpt"}, "8", ScenarioSpec{CheckpointInterval: 8}, errInt},
		{[]string{"prune"}, "1", ScenarioSpec{Prune: true}, errBool},
		{[]string{"heap_ceiling_mb", "heap"}, "512", ScenarioSpec{HeapCeilingMB: 512}, errInt},
		{[]string{"sync_chunk_bytes"}, "16384", ScenarioSpec{SyncChunkBytes: 16384}, errInt},
		{[]string{"zipf"}, "1.1", ScenarioSpec{Open: &OpenSpec{Zipf: 1.1}}, errFloat},
		{[]string{"churn_on", "churn"}, "10s", ScenarioSpec{Open: &OpenSpec{ChurnOn: sec(10 * time.Second)}}, errDuration},
		{[]string{"churn_off"}, "5", ScenarioSpec{Open: &OpenSpec{ChurnOff: sec(5 * time.Second)}}, errDuration},
		{[]string{"admission", "policy"}, "Delay", ScenarioSpec{Admission: &AdmissionSpec{Policy: "delay"}}, ""},
		{[]string{"watermark"}, "0.8", ScenarioSpec{Admission: &AdmissionSpec{Policy: AdmissionReject, Watermark: 0.8}}, errFloat},
		{[]string{"max_txs"}, "400", ScenarioSpec{Admission: &AdmissionSpec{Policy: AdmissionReject, MaxTxs: 400}}, errInt},
		{[]string{"max_bytes"}, "1000000", ScenarioSpec{Admission: &AdmissionSpec{Policy: AdmissionReject, MaxBytes: 1000000}}, errInt},
		{[]string{"max_delay"}, "2s", ScenarioSpec{Admission: &AdmissionSpec{Policy: AdmissionReject, MaxDelay: sec(2 * time.Second)}}, errDuration},
		{[]string{"max_deferred"}, "64", ScenarioSpec{Admission: &AdmissionSpec{Policy: AdmissionReject, MaxDeferred: 64}}, errInt},
		{[]string{"drop"}, "0.01", ScenarioSpec{Faults: linkEvent(FaultEventSpec{Drop: 0.01})}, errFloat},
		{[]string{"duplicate", "dup"}, "0.02", ScenarioSpec{Faults: linkEvent(FaultEventSpec{Duplicate: 0.02})}, errFloat},
		{[]string{"reorder"}, "0.03", ScenarioSpec{Faults: linkEvent(FaultEventSpec{Reorder: 0.03})}, errFloat},
	} {
		for _, key := range tc.keys {
			// Keys match case-insensitively; errors quote the key as given.
			for _, k := range []string{key, strings.ToUpper(key)} {
				var s ScenarioSpec
				if err := Set(&s, k, tc.value); err != nil {
					t.Errorf("Set(%s=%s): %v", k, tc.value, err)
				} else if !reflect.DeepEqual(s, tc.want) {
					t.Errorf("Set(%s=%s) = %+v, want %+v", k, tc.value, s, tc.want)
				}
				if tc.err == "" {
					continue
				}
				s = ScenarioSpec{}
				err := Set(&s, k, "x")
				if want := k + "=x: " + tc.err; err == nil || err.Error() != want {
					t.Errorf("Set(%s=x) error %v, want %q", k, err, want)
				}
				if !reflect.DeepEqual(s, ScenarioSpec{}) {
					t.Errorf("rejected Set(%s=x) changed the spec: %+v", k, s)
				}
			}
		}
	}

	const known = "name, group, algorithm, collector, light, servers, shards, " +
		"intra_workers, transport, fanout, rate, send_for, horizon, network_delay, " +
		"bandwidth, seed, scale, metrics, crypto, faulty, behaviors, inject_count, " +
		"checkpoint_interval, prune, heap_ceiling_mb, sync_chunk_bytes, zipf, " +
		"churn_on, churn_off, admission, watermark, max_txs, max_bytes, max_delay, " +
		"max_deferred, drop, duplicate, reorder"
	var s ScenarioSpec
	err := Set(&s, "Warp", "9")
	if want := `unknown spec field "Warp" (known: ` + known + `)`; err == nil || err.Error() != want {
		t.Errorf("unknown key error %v, want %q", err, want)
	}
}

// overrideExempt names the JSON fields no override key reaches, each with
// the reason a single key=value cannot express it.
var overrideExempt = map[string]string{
	"workload":      "the element-size model is calibrated to the paper's Arbitrum trace, not swept",
	"open.envelope": "a rate envelope is a list of phases, not one value",
	"faults":        "a fault plan is a list of events; drop/duplicate/reorder cover its one-value case",
}

// Every JSON field of a scenario and its Open, Admission and Byzantine
// blocks is reachable by the key equal to its JSON name, and that key sets
// exactly that field: the key table cannot drift from the schema.
func TestOverrideTableCoversSchema(t *testing.T) {
	samples := map[reflect.Type]struct {
		value string
		want  any
	}{
		reflect.TypeOf(""):          {"x", "x"},
		reflect.TypeOf(0):           {"3", 3},
		reflect.TypeOf(int64(0)):    {"3", int64(3)},
		reflect.TypeOf(0.0):         {"0.5", 0.5},
		reflect.TypeOf(false):       {"true", true},
		reflect.TypeOf(Duration(0)): {"2s", Duration(2 * time.Second)},
		reflect.TypeOf([]string{}):  {"a+b", []string{"a", "b"}},
	}
	var walk func(path string, typ reflect.Type, at func(ScenarioSpec) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(ScenarioSpec) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				continue
			}
			full := strings.TrimPrefix(path+"."+name, ".")
			field := func(s ScenarioSpec) reflect.Value { return at(s).Field(i) }
			if _, ok := overrideExempt[full]; ok {
				continue
			}
			if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
				walk(full, f.Type.Elem(), func(s ScenarioSpec) reflect.Value { return field(s).Elem() })
				continue
			}
			sample, ok := samples[f.Type]
			if !ok {
				t.Errorf("%s: no sample value for type %v", full, f.Type)
				continue
			}
			var s ScenarioSpec
			if err := Set(&s, name, sample.value); err != nil {
				t.Errorf("%s: no override key %q: %v", full, name, err)
				continue
			}
			if got := field(s).Interface(); !reflect.DeepEqual(got, sample.want) {
				t.Errorf("Set(%s=%s) left %s = %v, want %v", name, sample.value, full, got, sample.want)
			}
		}
	}
	walk("", reflect.TypeOf(ScenarioSpec{}), func(s ScenarioSpec) reflect.Value { return reflect.ValueOf(s) })
}

// No key or alias names two rows: the compiler does not check a table,
// and a name's second row would be unreachable.
func TestOverrideKeysAreUnique(t *testing.T) {
	seen := map[string]string{}
	for _, o := range overrides {
		for _, name := range append([]string{o.key}, o.aliases...) {
			if name != strings.ToLower(name) {
				t.Errorf("key %q is not lower-case and can never match", name)
			}
			if prev, ok := seen[name]; ok {
				t.Errorf("%q names both %s and %s", name, prev, o.key)
			}
			seen[name] = o.key
		}
	}
}
