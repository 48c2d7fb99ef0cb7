package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cpufeat"
	"repro/internal/tuning"
)

// provenance identifies the machine and code a record was measured
// on, so that a ratio change between two records can be told apart
// from a host or dispatch change.
type provenance struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	SIMD       string         `json:"simd"`
	Tunables   map[string]int `json:"tunables"`
	// Binary is a hash of the running executable: equal hashes mean
	// the same code.
	Binary string `json:"binary"`
	// TunablesDiffer lists tunables that resolved to another value in
	// an earlier record of the same binary, a known source of bimodal
	// timings.
	TunablesDiffer []string `json:"tunables_differ,omitempty"`
}

// stampProvenance resolves every tunable (timing it, as part of
// set-up) and collects the stamp.
func stampProvenance() (provenance, time.Duration) {
	t0 := time.Now()
	resolved := tuning.ResolveAll()
	resolve := time.Since(t0)
	p := provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       cpufeat.String(),
		Tunables:   map[string]int{},
		Binary:     binaryHash(),
	}
	for _, r := range resolved {
		p.Tunables[r.Name] = r.Value
	}
	return p, resolve
}

// String renders the stamp on one line.
func (p provenance) String() string {
	names := make([]string, 0, len(p.Tunables))
	for n := range p.Tunables {
		names = append(names, n+"="+strconv.Itoa(p.Tunables[n]))
	}
	sort.Strings(names)
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s simd=%q tunables=%s binary=%s",
		p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.SIMD, strings.Join(names, ","), p.Binary)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// binaryHash returns the first 16 hex digits of the executable's
// SHA-256, or "unknown".
func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// flagTunableDrift compares p against earlier records of the same
// binary in the records file and lists the tunables whose resolved
// value changed.
func flagTunableDrift(p *provenance, records []byte) {
	differ := map[string]bool{}
	for _, line := range strings.Split(string(records), "\n") {
		var rec struct {
			Provenance provenance `json:"provenance"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Provenance.Binary != p.Binary {
			continue
		}
		for n, v := range rec.Provenance.Tunables {
			if cur, ok := p.Tunables[n]; ok && cur != v {
				differ[n] = true
			}
		}
	}
	p.TunablesDiffer = nil
	for n := range differ {
		p.TunablesDiffer = append(p.TunablesDiffer, n)
	}
	sort.Strings(p.TunablesDiffer)
}
