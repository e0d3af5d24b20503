package spec

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set assigns one field of the spec by its override key. Keys are the
// JSON field names plus short aliases; values are parsed the way the CLI
// writes them ("hashchain", "500", "30ms", "true"). Multi-valued
// behaviors join with '+' ("withhold-batches+corrupt-proofs") so commas
// stay free for matrix value lists.
func Set(s *ScenarioSpec, key, value string) error {
	o, ok := lookupOverride(strings.ToLower(key))
	if !ok {
		return fmt.Errorf("unknown spec field %q (known: %s)",
			key, strings.Join(overrideKeys, ", "))
	}
	if err := o.set(s, value); err != nil {
		return fmt.Errorf("%s=%s: %w", key, value, err)
	}
	return nil
}

// override is one Set key: the JSON name of the field it sets, its short
// aliases, and the setter that parses a value into the field.
type override struct {
	key     string
	aliases []string
	set     func(s *ScenarioSpec, value string) error
}

// field builds a setter that parses the value first and only then finds
// (or creates) the field, so a rejected value leaves the spec untouched.
func field[T any](parse func(string) (T, error), at func(*ScenarioSpec) *T) func(*ScenarioSpec, string) error {
	return func(s *ScenarioSpec, value string) error {
		v, err := parse(value)
		if err != nil {
			return err
		}
		*at(s) = v
		return nil
	}
}

// The value parsers, one per field type.
func text(v string) (string, error)       { return v, nil }
func lower(v string) (string, error)      { return strings.ToLower(v), nil }
func plusList(v string) ([]string, error) { return strings.Split(v, "+"), nil }
func float(v string) (float64, error)     { return strconv.ParseFloat(v, 64) }
func int64s(v string) (int64, error)      { return strconv.ParseInt(v, 10, 64) }

// overrides is every Set key, in the order the unknown-key error lists
// them. Each key is the JSON name of the field it sets.
var overrides = []override{
	{"name", nil, field(text, func(s *ScenarioSpec) *string { return &s.Name })},
	{"group", nil, field(text, func(s *ScenarioSpec) *string { return &s.Group })},
	{"algorithm", []string{"alg"}, field(lower, func(s *ScenarioSpec) *string { return &s.Algorithm })},
	{"collector", []string{"c"}, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.Collector })},
	{"light", nil, field(strconv.ParseBool, func(s *ScenarioSpec) *bool { return &s.Light })},
	{"servers", []string{"n"}, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.Servers })},
	{"shards", []string{"s"}, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.Shards })},
	{"transport", nil, field(lower, func(s *ScenarioSpec) *string { return &s.Transport })},
	{"fanout", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.Fanout })},
	{"rate", nil, field(float, func(s *ScenarioSpec) *float64 { return &s.Rate })},
	{"send_for", []string{"sendfor", "send"}, field(parseDuration, func(s *ScenarioSpec) *Duration { return &s.SendFor })},
	{"horizon", nil, field(parseDuration, func(s *ScenarioSpec) *Duration { return &s.Horizon })},
	{"network_delay", []string{"delay"}, field(parseDuration, func(s *ScenarioSpec) *Duration { return &s.NetworkDelay })},
	{"bandwidth", nil, field(float, func(s *ScenarioSpec) *float64 { return &s.Bandwidth })},
	{"seed", nil, field(int64s, func(s *ScenarioSpec) *int64 { return &s.Seed })},
	{"scale", nil, field(float, func(s *ScenarioSpec) *float64 { return &s.Scale })},
	{"metrics", nil, field(lower, func(s *ScenarioSpec) *string { return &s.Metrics })},
	{"crypto", nil, field(lower, func(s *ScenarioSpec) *string { return &s.Crypto })},
	{"faulty", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &byzantineOf(s, 0).Faulty })},
	{"behaviors", []string{"behavior"}, field(plusList, func(s *ScenarioSpec) *[]string { return &byzantineOf(s, 1).Behaviors })},
	{"inject_count", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &byzantineOf(s, 1).InjectCount })},
	{"checkpoint_interval", []string{"ckpt"}, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.CheckpointInterval })},
	{"prune", nil, field(strconv.ParseBool, func(s *ScenarioSpec) *bool { return &s.Prune })},
	{"heap_ceiling_mb", []string{"heap"}, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.HeapCeilingMB })},
	{"sync_chunk_bytes", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &s.SyncChunkBytes })},
	{"zipf", nil, field(float, func(s *ScenarioSpec) *float64 { return &openOf(s).Zipf })},
	{"churn_on", []string{"churn"}, field(parseDuration, func(s *ScenarioSpec) *Duration { return &openOf(s).ChurnOn })},
	{"churn_off", nil, field(parseDuration, func(s *ScenarioSpec) *Duration { return &openOf(s).ChurnOff })},
	{"admission", []string{"policy"}, field(lower, func(s *ScenarioSpec) *string { return &admissionOf(s).Policy })},
	{"watermark", nil, field(float, func(s *ScenarioSpec) *float64 { return &admissionOf(s).Watermark })},
	{"max_txs", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &admissionOf(s).MaxTxs })},
	{"max_bytes", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &admissionOf(s).MaxBytes })},
	{"max_delay", nil, field(parseDuration, func(s *ScenarioSpec) *Duration { return &admissionOf(s).MaxDelay })},
	{"max_deferred", nil, field(strconv.Atoi, func(s *ScenarioSpec) *int { return &admissionOf(s).MaxDeferred })},
	{"drop", nil, field(float, func(s *ScenarioSpec) *float64 { return &baseLinkEvent(s).Drop })},
	{"duplicate", []string{"dup"}, field(float, func(s *ScenarioSpec) *float64 { return &baseLinkEvent(s).Duplicate })},
	{"reorder", nil, field(float, func(s *ScenarioSpec) *float64 { return &baseLinkEvent(s).Reorder })},
}

// overrideKeys lists the canonical Set keys for error messages.
var overrideKeys = func() []string {
	keys := make([]string, len(overrides))
	for i, o := range overrides {
		keys[i] = o.key
	}
	return keys
}()

// lookupOverride finds the row a lower-cased key or alias names.
func lookupOverride(key string) (override, bool) {
	for _, o := range overrides {
		if o.key == key || slices.Contains(o.aliases, key) {
			return o, true
		}
	}
	return override{}, false
}

// byzantineOf finds (or creates) the spec's Byzantine block. A block
// created by the faulty key starts with no faulty server; one created by
// the behavior keys starts with one, so behaviors=silent runs on its own.
func byzantineOf(s *ScenarioSpec, faulty int) *ByzantineSpec {
	if s.Byzantine == nil {
		s.Byzantine = &ByzantineSpec{Faulty: faulty}
	}
	return s.Byzantine
}

// openOf finds (or creates) the spec's open-system block for the
// zipf/churn override keys.
func openOf(s *ScenarioSpec) *OpenSpec {
	if s.Open == nil {
		s.Open = &OpenSpec{}
	}
	return s.Open
}

// admissionOf finds (or creates) the spec's admission block. The bare
// watermark/cap keys default the policy to "reject" so a single matrix
// axis like max_txs=200,400,800 is runnable on its own.
func admissionOf(s *ScenarioSpec) *AdmissionSpec {
	if s.Admission == nil {
		s.Admission = &AdmissionSpec{Policy: AdmissionReject}
	}
	return s.Admission
}

// baseLinkEvent finds (or creates) the spec's time-zero all-links fault
// event, so the drop/duplicate/reorder override keys merge into one event
// instead of each replacing the others' link configuration.
func baseLinkEvent(s *ScenarioSpec) *FaultEventSpec {
	if s.Faults == nil {
		s.Faults = &FaultSpec{}
	}
	for i := range s.Faults.Events {
		ev := &s.Faults.Events[i]
		if ev.Action == FaultLink && ev.At == 0 && len(ev.From) == 0 && len(ev.To) == 0 {
			return ev
		}
	}
	s.Faults.Events = append(s.Faults.Events, FaultEventSpec{Action: FaultLink})
	return &s.Faults.Events[len(s.Faults.Events)-1]
}

// parseDuration accepts "30ms"/"50s" and bare numbers of seconds.
func parseDuration(v string) (Duration, error) {
	if d, err := time.ParseDuration(v); err == nil {
		return Duration(d), nil
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("want a duration (\"30ms\") or seconds, got %q", v)
	}
	return Duration(secs * float64(time.Second)), nil
}

// Axis is one matrix dimension: a spec field crossed over several values.
type Axis struct {
	Key    string
	Values []string
}

// ParseAxis parses a "servers=4,8,16"-style matrix override.
func ParseAxis(arg string) (Axis, error) {
	key, vals, ok := strings.Cut(arg, "=")
	if !ok || key == "" || vals == "" {
		return Axis{}, fmt.Errorf("matrix override %q: want key=v1,v2,...", arg)
	}
	ax := Axis{Key: strings.TrimSpace(key)}
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return Axis{}, fmt.Errorf("matrix override %q: empty value", arg)
		}
		ax.Values = append(ax.Values, v)
	}
	// Validate the key and value syntax once up front, against a throwaway
	// spec, so errors surface before any simulation starts.
	var probe ScenarioSpec
	for _, v := range ax.Values {
		if err := Set(&probe, ax.Key, v); err != nil {
			return Axis{}, err
		}
	}
	return ax, nil
}

// Expand crosses the cells over every axis in order (the last axis varies
// fastest). Axes with more than one value tag each resulting cell's Name
// with "key=value" so matrix output stays tellable apart.
func Expand(cells []ScenarioSpec, axes ...Axis) ([]ScenarioSpec, error) {
	out := append([]ScenarioSpec(nil), cells...)
	for _, ax := range axes {
		next := make([]ScenarioSpec, 0, len(out)*len(ax.Values))
		for _, cell := range out {
			for _, v := range ax.Values {
				c := cell.clone()
				if err := Set(&c, ax.Key, v); err != nil {
					return nil, err
				}
				if len(ax.Values) > 1 {
					tag := fmt.Sprintf("%s=%s", ax.Key, v)
					if c.Name == "" {
						c.Name = fmt.Sprintf("%s %s", c.VariantLabel(), tag)
					} else {
						c.Name += " " + tag
					}
				}
				next = append(next, c)
			}
		}
		out = next
	}
	return out, nil
}

// Suggest returns registry-independent near-miss candidates for name from
// the given vocabulary: exact-prefix and substring matches first, then
// anything within edit distance 2, closest first.
func Suggest(name string, vocabulary []string) []string {
	type cand struct {
		name string
		rank int
	}
	var cands []cand
	lower := strings.ToLower(name)
	for _, v := range vocabulary {
		lv := strings.ToLower(v)
		switch {
		case strings.HasPrefix(lv, lower) || strings.Contains(lv, lower):
			cands = append(cands, cand{v, 0})
		default:
			if d := editDistance(lower, lv); d <= 2 {
				cands = append(cands, cand{v, d})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].rank < cands[j].rank })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
