package diag

import (
	"flag"
	"fmt"

	"github.com/example/vectrace/internal/trace"
)

// TraceFormat groups the trace-container knobs shared by vectrace's
// record and analyze: which on-disk format to write (and, on the read
// side, to require), the VTR2 block-size and compression options, and how many
// workers an indexed region scan fans out across. Like the other flag
// groups here, zero values select the defaults and the struct is safe to
// wire unconditionally.
type TraceFormat struct {
	// Format is the selected trace format: trace.FormatVTR1 or
	// trace.FormatVTR2 on the write side; on the read side "auto" (accept
	// whatever the file is, the default there) is also valid and format
	// values act as an assertion on the sniffed file.
	Format string
	// BlockBytes is the VTR2 target uncompressed payload per block.
	BlockBytes int
	// Compress is the VTR2 codec: "flate" or "none".
	Compress string
	// ScanWorkers is the indexed-scan fan-out: 0 = match the analysis
	// worker count, -1 = force the sequential scanner even on an indexed
	// file (the differential-testing oracle).
	ScanWorkers int
}

// Register installs the format flags on fs. formatFlag names the format
// selector ("format" for record, "trace-format" for readers, where plain
// -format would be ambiguous with report formatting); formatDefault seeds
// it ("vtr1" for writers — old consumers keep working — and "auto" for
// readers). withScan additionally installs -scan-workers, which only
// readers use.
func (t *TraceFormat) Register(fs *flag.FlagSet, formatFlag, formatDefault string, withScan bool) {
	usage := "trace file `format`: vtr1 or vtr2 (indexed container)"
	if formatDefault == "auto" {
		usage += ", or auto to sniff"
	}
	fs.StringVar(&t.Format, formatFlag, formatDefault, usage)
	fs.IntVar(&t.BlockBytes, "block", trace.DefaultBlockBytes, "vtr2 target uncompressed `bytes` per container block")
	fs.StringVar(&t.Compress, "compress", "flate", "vtr2 block compression: flate or none")
	if withScan {
		fs.IntVar(&t.ScanWorkers, "scan-workers", 0, "indexed-scan worker `count` (0 = analysis workers, -1 = sequential scan)")
	}
}

// Validate checks the selected values, allowing "auto" only when the
// caller does (readers sniff; writers must pick a concrete format).
func (t *TraceFormat) Validate(allowAuto bool) error {
	switch t.Format {
	case trace.FormatVTR1, trace.FormatVTR2:
	case "auto":
		if !allowAuto {
			return fmt.Errorf("format %q: pick vtr1 or vtr2", t.Format)
		}
	default:
		return fmt.Errorf("unknown trace format %q (want vtr1 or vtr2)", t.Format)
	}
	switch t.Compress {
	case "", "flate", "none":
	default:
		return fmt.Errorf("unknown compression %q (want flate or none)", t.Compress)
	}
	return nil
}

// ContainerOptions maps the flags onto the VTR2 writer options.
func (t *TraceFormat) ContainerOptions() trace.ContainerOptions {
	return trace.ContainerOptions{BlockBytes: t.BlockBytes, Codec: t.Compress}
}

// CheckOpened asserts a sniffed file against the selected format ("auto"
// accepts anything).
func (t *TraceFormat) CheckOpened(o *trace.Opened) error {
	if t.Format != "auto" && t.Format != o.Format {
		return fmt.Errorf("trace file is %s, but -trace-format requires %s", o.Format, t.Format)
	}
	return nil
}
