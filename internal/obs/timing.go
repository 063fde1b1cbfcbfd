package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TimingRow is one experiment's elapsed time, not its cost: Wall runs
// from the experiment's start to its finish, so it includes time blocked
// in memo waits and CPU shared with the pool helpers a lent slot let
// start. A row also counts the work cells (replication tasks on the
// worker pool) the experiment fanned out and says how it ended ("ok",
// "failed", "unfinished", "error"; empty for synthetic rows like
// "(shared)").
type TimingRow struct {
	Name   string
	Wall   time.Duration
	Cells  uint64
	Status string
}

// Timings collects per-experiment timing rows. Record order is preserved;
// the harness records rows in evaluation order after its parallel run
// barrier, so the report is stable even though execution is not.
type Timings struct {
	mu   sync.Mutex
	rows []TimingRow
}

// Record appends one row.
func (t *Timings) Record(name string, wall time.Duration, cells uint64, status string) {
	t.mu.Lock()
	t.rows = append(t.rows, TimingRow{Name: name, Wall: wall, Cells: cells, Status: status})
	t.mu.Unlock()
}

// Rows returns a copy of the recorded rows in record order.
func (t *Timings) Rows() []TimingRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimingRow(nil), t.rows...)
}

// WriteTable renders an aligned timing table plus a total line. Each
// row's wall is elapsed time, and the walls of concurrently executed
// experiments overlap, so the total is a sum of overlapping intervals:
// neither the run's elapsed time nor its CPU time. The harness prints
// elapsed separately.
func (t *Timings) WriteTable(w io.Writer) error {
	rows := t.Rows()
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "(no experiment timings recorded)")
		return err
	}
	width := len("experiment")
	for _, r := range rows {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %12s  %8s  %s\n", width, "experiment", "wall", "cells", "status"); err != nil {
		return err
	}
	var wall time.Duration
	var cells uint64
	for _, r := range rows {
		wall += r.Wall
		cells += r.Cells
		if _, err := fmt.Fprintf(w, "%-*s  %12s  %8d  %s\n", width, r.Name, r.Wall.Round(time.Millisecond), r.Cells, r.Status); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  %12s  %8d\n", width, "total", wall.Round(time.Millisecond), cells)
	return err
}
