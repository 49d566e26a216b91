package checkpoint

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ExitCodeInterrupted is the process exit status after a graceful
// checkpoint-and-exit (128 + SIGINT, the shell convention).
const ExitCodeInterrupted = 130

// HandleSignals arms graceful shutdown for a checkpointed run, for the rest
// of the process. The first SIGINT/SIGTERM requests an immediate watermark
// from every running point, waits `settle` wall-clock for those marks to
// land, saves the file, prints a resume hint, and exits with status 130; a
// second signal during the settle window hard-exits immediately.
func HandleSignals(m *Manager, w io.Writer, settle time.Duration) {
	ch := make(chan os.Signal, 2) // the first signal and the impatient second
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(w, "\n%v: checkpointing to %s (send again to exit immediately) ...\n", sig, m.Path())
		m.RequestFlush()
		go func() {
			<-ch
			os.Exit(ExitCodeInterrupted)
		}()
		time.Sleep(settle)
		if err := m.Save(); err != nil {
			fmt.Fprintf(w, "checkpoint save failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "checkpoint saved; resume with -resume %s\n", m.Path())
		os.Exit(ExitCodeInterrupted)
	}()
}
