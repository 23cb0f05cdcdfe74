package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"crdtsync"
)

// TestSmoke runs all four workloads shrunk to a fraction of a second each,
// untraced and traced: the harness must build against the stores as they
// are, converge, satisfy its oracle and produce every metric it names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback clusters")
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.5, setups: 1, trace: traced, out: t.TempDir()}
			r, err := runOne(s.smoke(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if r.oracleBad != 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: %d failed operations: %v", s.name, traced, r.failed, r.failures)
			}
			for name, v := range values(endToEnd, r) {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v, want a positive number", s.name, traced, name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if len(r.trace.total) == 0 {
				t.Errorf("%s: no probe was followed through the tap", s.name)
			}
			if got, want := r.wire.total(), int64(r.stats.WireBytes); got == 0 || want == 0 {
				t.Errorf("%s: tap saw %d bytes, stores report %d", s.name, got, want)
			}
			for _, name := range []string{"codec.unpack_ns_per_item", "protocol.deliver_ns_per_item", "transport.update_ns_per_op", "transport.restore_ms"} {
				if !(r.replay[name] > 0) {
					t.Errorf("%s: replay metric %s = %v", s.name, name, r.replay[name])
				}
			}
			if _, err := os.Stat(o.out + "/trace-" + s.name + ".json"); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
	}
}

// TestOracleSeesDivergence keeps the oracle honest: a store missing one
// update, holding one wrong value, or holding an object nobody wrote must
// each be reported.
func TestOracleSeesDivergence(t *testing.T) {
	st, err := crdtsync.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stores := []*crdtsync.Store{st}
	s := specs[0]
	s.preload = 300
	want := newExpected()
	g := preloadGen(3, s)
	var last op
	for i := 0; i < s.preload; i++ {
		o := g.preloadOp(i)
		want.apply(o)
		o.replica = 0
		o.issue(stores)
		last = o
	}
	if bad, first := diffStore(st, want); bad != 0 {
		t.Fatalf("converged store reported %d differences, first %s", bad, first)
	}
	st.Counter("k0000000").Inc(1)
	if bad, first := diffStore(st, want); bad != 1 || first != "c/k0000000" {
		t.Errorf("extra increment: got %d differences, first %q", bad, first)
	}
	want.counters["c/k0000000"]++
	st.Set("stray").Add("x")
	if bad, _ := diffStore(st, want); bad != 1 {
		t.Errorf("unexpected object: got %d differences, want 1", bad)
	}
	want.apply(op{kind: opAdd, name: "stray", arg: "x"})
	want.fields[last.key()] = "other"
	if bad, first := diffStore(st, want); bad != 1 || first != last.key() {
		t.Errorf("wrong map value: got %d differences, first %q", bad, first)
	}
	want.fields[last.key()] = last.arg
	want.counters["c/never"] = 1
	if bad, _ := diffStore(st, want); bad != 1 {
		t.Errorf("missing object: got %d differences, want 1", bad)
	}
}

// TestGeneratorIsAFunctionOfTheSeed pins the property the oracle rests on.
func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		a, b, c := windowGen(5, s), windowGen(5, s), windowGen(6, s)
		same := true
		for i := 0; i < 2000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("%s: op %d differs between two generators of one seed: %+v / %+v", s.name, i, x, y)
			}
			same = same && x == z
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 generate the same ops", s.name)
		}
	}
}

// TestQuartilesMatchPython checks the spread arithmetic against
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q3 := quartiles(v)
	if q1 != 1.75 || q3 != 5.25 || median(v) != 3.5 {
		t.Errorf("got q1=%v median=%v q3=%v, want 1.75 3.5 5.25", q1, median(v), q3)
	}
}

// TestManifestInSync: BENCHMARK.json is generated from the tables in this
// package (-manifest) and must not drift from them, nor README.md from
// the metric names.
func TestManifestInSync(t *testing.T) {
	disk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `bash bench/run.sh -manifest`")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if !strings.Contains(string(readme), "`"+m.name+"`") {
				t.Errorf("README.md does not document %s", m.name)
			}
		}
	}
}
