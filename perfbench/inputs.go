package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

const (
	// serverSeed and liveScale are queued's own defaults (-seed 1 -scale
	// 0.25): the city its bootstrap analysis detects spots on. The live
	// feeds are simulated on that same city, or almost none of their
	// pickups would land on a detected spot.
	serverSeed = 1
	liveScale  = 0.25
	// batchScale is the full-scale city of the paper's daily pass.
	batchScale = 1.0
	// surge is the fleet multiplier of the live-ingest day (mdtgen -surge).
	surge = 10

	inputMagic = "TQBENCH1"
)

// inputSpec says what to simulate for a workload.
type inputSpec struct {
	scale float64
	fleet int // multiple of the city's default fleet
}

var inputSpecs = map[string]inputSpec{
	"batch-day":   {scale: batchScale, fleet: 1},
	"live-ingest": {scale: liveScale, fleet: surge},
	"live-mixed":  {scale: liveScale, fleet: 1},
}

// simSeed derives the simulation seed from the workload seed, never equal
// to the seed of queued's own bootstrap day.
func simSeed(seed int64) int64 {
	s := seed + 1000
	if s == serverSeed {
		s++
	}
	return s
}

// ensureInput returns the cached input file of workload for seed,
// simulating it first if needed. Simulation runs in a child process so
// neither its time nor its memory lands in the measured process.
func ensureInput(out, workload string, seed int64) (string, error) {
	dir := filepath.Join(out, "inputs")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.mdt", workload, seed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-gen", path, "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("simulate %s input: %w", workload, err)
	}
	return path, nil
}

// generateInput simulates workload's day for seed on the benchmark city and
// writes it, in time order, as mdt binary records behind a magic and a
// count. The file appears atomically.
func generateInput(workload string, seed int64, path string) error {
	spec, ok := inputSpecs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	city := citymap.Generate(serverSeed, spec.scale)
	out := sim.Run(sim.Config{
		Seed:         simSeed(seed),
		City:         city,
		NumTaxis:     spec.fleet * sim.DefaultFleet(city),
		InjectFaults: true,
	})
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(inputMagic)
	w.Write(binary.BigEndian.AppendUint64(nil, uint64(len(out.Records))))
	var buf []byte
	for _, r := range out.Records {
		buf = r.AppendBinary(buf[:0])
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readInput reads and decodes an input file.
func readInput(path string) ([]mdt.Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(inputMagic)+8 || string(raw[:len(inputMagic)]) != inputMagic {
		return nil, fmt.Errorf("%s: not a benchmark input", path)
	}
	n := binary.BigEndian.Uint64(raw[len(inputMagic):])
	b := raw[len(inputMagic)+8:]
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("%s: count %d exceeds the file", path, n)
	}
	recs := make([]mdt.Record, n)
	for i := range recs {
		r, k, err := mdt.DecodeBinary(b)
		if err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, i, err)
		}
		recs[i] = r
		b = b[k:]
	}
	if len(b) != 0 {
		return nil, errors.New(path + ": trailing bytes")
	}
	return recs, nil
}
