package main

import (
	"strings"
	"testing"
)

// An -only list with an unknown ID fails before any table runs, and the
// error names the ID.
func TestRunRejectsUnknownID(t *testing.T) {
	err := run(true, "E4,BOGUS", 1)
	if err == nil || !strings.Contains(err.Error(), "BOGUS") {
		t.Fatalf("run(-only E4,BOGUS) error = %v, want one naming BOGUS", err)
	}
}
