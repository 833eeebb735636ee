package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/experiments"
	"github.com/quartz-emu/quartz/internal/workload"
)

// trafficLists names the list flags applyTrafficOverrides reads, in the
// order it checks them.
var trafficLists = [3]string{"-traffic-clients", "-traffic-mixes", "-traffic-lats"}

// overrideList applies csv as list flag i alone to the quick scale.
func overrideList(i int, csv string) (experiments.Scale, error) {
	var l [3]string
	l[i] = csv
	s := experiments.Quick
	return s, applyTrafficOverrides(&s, l[0], l[1], 0, l[2])
}

// listValues prints the scale's values for list flag i, each in the form
// the flag accepts, and fails t on a value no list may hold.
func listValues(t *testing.T, s experiments.Scale, i int) []string {
	var out []string
	switch i {
	case 0:
		for _, n := range s.TrafficClients {
			if n <= 0 {
				t.Fatalf("accepted client count %d", n)
			}
			out = append(out, strconv.Itoa(n))
		}
	case 1:
		for _, name := range s.TrafficMixes {
			if _, ok := workload.MixByName(name); !ok {
				t.Fatalf("accepted unknown mix %q", name)
			}
			out = append(out, name)
		}
	case 2:
		for _, v := range s.TrafficLatsNS {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("accepted latency %v", v)
			}
			out = append(out, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return out
}

// FuzzTrafficOverrides fuzzes the -traffic-clients, -traffic-mixes and
// -traffic-lats lists. On any input applyTrafficOverrides must not panic;
// it must accept the three lists exactly when it accepts each comma
// element of each list on its own (an empty list is no override, an empty
// element is never valid), and name the first list it rejects; every
// value it accepts must be a positive count, a known mix or a finite
// positive latency; and what it accepts must land in the Scale element for
// element and read back the same after a round trip through its printed
// form.
func FuzzTrafficOverrides(f *testing.F) {
	for _, seed := range [][3]string{
		{"8, 24", "scan-blend", "200, 600"},
		{"", "", ""},
		{"1,,2", "read-mostly,", "600,zero"},
		{"0", "nope", "-200"},
		{"+7", " read-mostly ", "1e-300"},
		{"9223372036854775808", "READ-MOSTLY", "NaN,Inf,1e309"},
		{"0x10", "scan-blend,read-mostly", "0x1p-2, 1_000"},
		{"0", "", ""},
		{"", "read-mostly,", ""},
		{"", "", "Inf"},
		{"", "", "1,"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, clients, mixes, lats string) {
		lists := [3]string{clients, mixes, lats}
		s := experiments.Quick
		err := applyTrafficOverrides(&s, clients, mixes, 0, lats)

		firstBad := -1
		for i, csv := range lists {
			if csv == "" {
				continue
			}
			for _, e := range strings.Split(csv, ",") {
				one, eerr := overrideList(i, e)
				if e == "" || eerr != nil {
					firstBad = i
					break
				}
				listValues(t, one, i)
			}
			if firstBad >= 0 {
				break
			}
		}
		if firstBad >= 0 {
			if err == nil {
				t.Fatalf("accepted %q although %s has an invalid element", lists, trafficLists[firstBad])
			}
			if !strings.HasPrefix(err.Error(), trafficLists[firstBad]) {
				t.Fatalf("error %q does not name %s", err, trafficLists[firstBad])
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected %q, whose every element is valid: %v", lists, err)
		}

		for i, csv := range lists {
			got := listValues(t, s, i)
			if csv == "" {
				if !slices.Equal(got, listValues(t, experiments.Quick, i)) {
					t.Fatalf("empty %s changed the scale to %q", trafficLists[i], got)
				}
				continue
			}
			elems := strings.Split(csv, ",")
			if len(got) != len(elems) {
				t.Fatalf("%s %q gave %d values %q", trafficLists[i], csv, len(got), got)
			}
			for k, e := range elems {
				one, _ := overrideList(i, e)
				if v := listValues(t, one, i); len(v) != 1 || v[0] != got[k] {
					t.Fatalf("%s %q: element %d %q reads %q in the list, %q alone", trafficLists[i], csv, k, e, got[k], v)
				}
			}
			again, err := overrideList(i, strings.Join(got, ","))
			if err != nil {
				t.Fatalf("%s: printed values %q rejected: %v", trafficLists[i], got, err)
			}
			if back := listValues(t, again, i); !slices.Equal(back, got) {
				t.Fatalf("%s: %q read back as %q", trafficLists[i], got, back)
			}
		}
	})
}
