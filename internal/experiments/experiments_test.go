package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// The experiment suite is the repository's reproduction deliverable, so it
// must run end-to-end; Quick scale keeps these tests fast while exercising
// every code path.
func TestAllExperimentsQuick(t *testing.T) {
	tables, err := All(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 17 {
		t.Fatalf("got %d tables, want 17", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if tbl.ID == "" || tbl.Title == "" || tbl.Claim == "" {
			t.Errorf("table %q missing metadata", tbl.ID)
		}
		if seen[tbl.ID] {
			t.Errorf("duplicate table ID %q", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Errorf("table %s has no rows", tbl.ID)
		}
		for _, r := range tbl.Rows {
			if len(r) != len(tbl.Header) {
				t.Errorf("table %s: row width %d vs header %d", tbl.ID, len(r), len(tbl.Header))
			}
		}
		s := tbl.String()
		if !strings.Contains(s, tbl.ID) || !strings.Contains(s, "claim:") {
			t.Errorf("table %s renders incorrectly:\n%s", tbl.ID, s)
		}
	}
}

// Select resolves IDs case-insensitively, keeps registry order, and names an
// unknown ID instead of silently selecting nothing.
func TestSelect(t *testing.T) {
	got, err := Select("a1", " e4", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "E4" || got[1].ID != "A1" {
		t.Fatalf("Select(a1, e4) = %v, want [E4 A1]", got)
	}
	if all, _ := Select(); len(all) != len(registry) {
		t.Fatalf("Select() returned %d experiments, want all %d", len(all), len(registry))
	}
	if _, err := Select("E1", "BOGUS"); err == nil || !strings.Contains(err.Error(), `"BOGUS"`) {
		t.Fatalf("Select(E1, BOGUS) error = %v, want one naming BOGUS", err)
	}
}

func TestE8OneSidedness(t *testing.T) {
	tbl, err := E8(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The "missed" column (last) must be 0 in every row: the error is
	// one-sided by Lemma 5.1.
	for _, r := range tbl.Rows {
		if r[len(r)-1] != "0" {
			t.Fatalf("E8 missed a true cut pair: %v", r)
		}
	}
}

func TestE9BoundsHold(t *testing.T) {
	tbl, err := E9(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		// segments/√n (col 5) and diam/√n (col 6) must stay below modest
		// constants.
		for _, col := range []int{5, 6} {
			var v float64
			if _, err := fmt.Sscan(r[col], &v); err != nil {
				t.Fatalf("parse %q: %v", r[col], err)
			}
			if v > 8 {
				t.Fatalf("E9 normalized value %v exceeds constant bound: row %v", v, r)
			}
		}
	}
}
