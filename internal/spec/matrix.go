package spec

import (
	"fmt"
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
	fail := func(err error) error {
		return fmt.Errorf("%s=%s: %w", key, value, err)
	}
	switch strings.ToLower(key) {
	case "name":
		s.Name = value
	case "group":
		s.Group = value
	case "algorithm", "alg":
		s.Algorithm = strings.ToLower(value)
	case "collector", "c":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.Collector = v
	case "light":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return fail(err)
		}
		s.Light = v
	case "servers", "n":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.Servers = v
	case "shards", "s":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.Shards = v
	case "intra_workers", "iw":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.IntraWorkers = v
	case "transport":
		s.Transport = strings.ToLower(value)
	case "fanout":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.Fanout = v
	case "rate":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		s.Rate = v
	case "send_for", "sendfor", "send":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		s.SendFor = v
	case "horizon":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		s.Horizon = v
	case "network_delay", "delay":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		s.NetworkDelay = v
	case "bandwidth":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		s.Bandwidth = v
	case "seed":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fail(err)
		}
		s.Seed = v
	case "scale":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		s.Scale = v
	case "metrics":
		s.Metrics = strings.ToLower(value)
	case "crypto":
		s.Crypto = strings.ToLower(value)
	case "faulty":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		if s.Byzantine == nil {
			s.Byzantine = &ByzantineSpec{}
		}
		s.Byzantine.Faulty = v
	case "behaviors", "behavior":
		if s.Byzantine == nil {
			s.Byzantine = &ByzantineSpec{Faulty: 1}
		}
		s.Byzantine.Behaviors = strings.Split(value, "+")
	case "inject_count":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		if s.Byzantine == nil {
			s.Byzantine = &ByzantineSpec{Faulty: 1}
		}
		s.Byzantine.InjectCount = v
	case "checkpoint_interval", "ckpt":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.CheckpointInterval = v
	case "prune":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return fail(err)
		}
		s.Prune = v
	case "heap_ceiling_mb", "heap":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.HeapCeilingMB = v
	case "sync_chunk_bytes":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		s.SyncChunkBytes = v
	case "zipf":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		openOf(s).Zipf = v
	case "churn_on", "churn":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		openOf(s).ChurnOn = v
	case "churn_off":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		openOf(s).ChurnOff = v
	case "admission", "policy":
		admissionOf(s).Policy = strings.ToLower(value)
	case "watermark":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		admissionOf(s).Watermark = v
	case "max_txs":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		admissionOf(s).MaxTxs = v
	case "max_bytes":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		admissionOf(s).MaxBytes = v
	case "max_delay":
		v, err := parseDuration(value)
		if err != nil {
			return fail(err)
		}
		admissionOf(s).MaxDelay = v
	case "max_deferred":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fail(err)
		}
		admissionOf(s).MaxDeferred = v
	case "drop":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		baseLinkEvent(s).Drop = v
	case "duplicate", "dup":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		baseLinkEvent(s).Duplicate = v
	case "reorder":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail(err)
		}
		baseLinkEvent(s).Reorder = v
	default:
		return fmt.Errorf("unknown spec field %q (known: %s)",
			key, strings.Join(overrideKeys, ", "))
	}
	return nil
}

// overrideKeys lists the canonical Set keys for error messages.
var overrideKeys = []string{
	"name", "group", "algorithm", "collector", "light", "servers", "shards",
	"intra_workers", "transport", "fanout", "rate",
	"send_for", "horizon", "network_delay", "bandwidth", "seed", "scale",
	"metrics", "crypto", "faulty", "behaviors", "inject_count",
	"checkpoint_interval", "prune", "heap_ceiling_mb", "sync_chunk_bytes",
	"zipf", "churn_on", "churn_off", "admission", "watermark",
	"max_txs", "max_bytes", "max_delay", "max_deferred",
	"drop", "duplicate", "reorder",
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
				c := cell
				if c.Byzantine != nil {
					b := *c.Byzantine
					c.Byzantine = &b
				}
				if c.Faults != nil {
					f := FaultSpec{Events: append([]FaultEventSpec(nil), c.Faults.Events...)}
					c.Faults = &f
				}
				if c.Open != nil {
					o := *c.Open
					o.Envelope = append([]RatePhaseSpec(nil), c.Open.Envelope...)
					c.Open = &o
				}
				if c.Admission != nil {
					a := *c.Admission
					c.Admission = &a
				}
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
