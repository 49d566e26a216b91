package main

import (
	"strings"
	"testing"
)

// checkArgs passes what fbtopo can run and refuses, with the flag named, a
// listing missing one endpoint and a tag range outside [1, maxTags].
func TestCheckArgs(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int
		tags     uint
		refuse   string // "" = accepted; else a substring of the error
	}{
		{"audit", -1, -1, 8, ""},
		{"listing", 0, 40, 8, ""},
		{"one tag", 0, 40, 1, ""},
		{"bound", -1, -1, maxTags, ""},
		{"src without dst", 5, -1, 8, "-src 5"},
		{"dst without src", -1, 5, 8, "-dst 5"},
		{"zero tags", -1, -1, 0, "-tags 0"},
		{"zero tags listing", 0, 40, 0, "-tags 0"},
		{"above bound", -1, -1, maxTags + 1, "-tags 65537"},
		{"above uint32", 0, 40, 1 << 32, "-tags 4294967296"},
	}
	for _, tc := range cases {
		err := checkArgs(tc.src, tc.dst, tc.tags)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refuse != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", tc.name, tc.refuse)
		case tc.refuse != "" && !strings.Contains(err.Error(), tc.refuse):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.refuse)
		}
	}
}
