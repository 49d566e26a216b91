package checkpoint

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// ExitCodeInterrupted is the process exit status after a graceful
// checkpoint-and-exit (128 + SIGINT, the shell convention).
const ExitCodeInterrupted = 130

// HandleSignals arms graceful shutdown for a checkpointed run, for the rest
// of the process. The first SIGINT/SIGTERM saves the file, prints a resume
// hint, and exits with status 130.
func HandleSignals(m *Manager, w io.Writer) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(w, "\n%v: checkpointing to %s ...\n", sig, m.Path())
		if err := m.Save(); err != nil {
			fmt.Fprintf(w, "checkpoint save failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "checkpoint saved; resume with -resume %s\n", m.Path())
		os.Exit(ExitCodeInterrupted)
	}()
}
