// Package stats provides the summary statistics the paper reports: means,
// maxima, and high percentiles of flow completion times, grouped into the
// paper's flow-size bins, plus normalization helpers for the
// "normalized to ECMP" presentation of Figures 3–8.
package stats

import (
	"fmt"
	"math"
)

// SizeBin is one of the paper's flow-size buckets (Figures 3 and 4).
type SizeBin int

// The paper's four bins.
const (
	BinTiny   SizeBin = iota // (0, 10 KB]
	BinSmall                 // (10 KB, 128 KB]
	BinMedium                // (128 KB, 1 MB]
	BinLarge                 // > 1 MB
	NumBins
)

// BinOf buckets a flow size in bytes. The paper's bin edges use decimal
// KB/MB.
func BinOf(size int64) SizeBin {
	switch {
	case size <= 10_000:
		return BinTiny
	case size <= 128_000:
		return BinSmall
	case size <= 1_000_000:
		return BinMedium
	default:
		return BinLarge
	}
}

func (b SizeBin) String() string {
	switch b {
	case BinTiny:
		return "[1KB,10KB]"
	case BinSmall:
		return "(10KB,128KB]"
	case BinMedium:
		return "(128KB,1MB]"
	case BinLarge:
		return ">1MB"
	}
	return fmt.Sprintf("bin(%d)", int(b))
}

// Ratio returns a/b, or NaN when b is 0 or either is NaN.
func Ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return a / b
}
