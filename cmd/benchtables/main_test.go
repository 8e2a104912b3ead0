package main

import (
	"strings"
	"testing"
)

// TestCheckJSON pins which flag sets may use -json: one JSON table alone
// prints one document, while -all or -fig would mix text tables into it.
func TestCheckJSON(t *testing.T) {
	var names []string
	for _, jt := range jsonTables {
		names = append(names, jt.name)
	}
	cases := []struct {
		name string
		opts options
		bad  []string // flags the error must name; nil when accepted
	}{
		{"one JSON table", options{jsonOut: true, table: "artifact"}, nil},
		{"with -all", options{jsonOut: true, all: true, table: "artifact"}, []string{"-all", "-fig", "-table"}},
		{"with -fig", options{jsonOut: true, fig: "2", table: "kernel"}, []string{"-all", "-fig", "-table"}},
		{"text table", options{jsonOut: true, table: "4"}, []string{"-table", "kernel, batch, ensemble, artifact and faults"}},
		{"no -json", options{all: true, fig: "2"}, nil},
	}
	for _, tc := range cases {
		err := checkJSON(tc.opts, names)
		if tc.bad == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.bad {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}
