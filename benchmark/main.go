// Command benchmark is the repo's one accepted source of performance
// evidence. It drives the public APIs of the SecureCloud reproduction from
// a single process — a closed loop of two sequential clients — over seven
// workloads that stress different layers, and reports six end-to-end
// metrics per workload; a separate -trace pass records spans around the
// calls into each layer and reports the per-layer metrics. Simulated
// figures (modelled cycles, exact for a seed) and host figures (wall clock
// of the simulator, crypto, codecs and HTTP) are kept apart.
//
// The driver's contract (BENCHMARK.json) runs it through run.sh as
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints a metric table and, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}. Without
// --workload every workload runs in turn. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	note string
	new  func() workload
}

var workloads = []workloadDef{
	{
		name: "plane_http_small",
		why:  "small requests over loopback HTTP: the wire/httpx front-end tax dominates; set-up is the paper's push, pull, SCONE boot, two attestations and key release",
		note: "HTTP runs over the loopback interface inside one process, not a real link",
		new:  newPlaneHTTPSmall,
	},
	{
		name: "plane_inproc_large",
		why:  "8-32 KiB requests straight on the event bus: bypasses wire, so cryptbox, microsvc.Step, eventbus and enclave accounting dominate; a wire change must not move it",
		new:  newPlaneInprocLarge,
	},
	{
		name: "scbr_publish_resident",
		why:  "SCBR publish/match/deliver on a 40 MB store that fits the EPC: the read path with zero EPC faults, so paging-model changes must not move it",
		new:  newSCBRPublish,
	},
	{
		name: "scbr_churn_paging",
		why:  "SCBR subscribe+unsubscribe pairs on a 140 MB store, 1.5x the usable EPC (Figure 3's knee): the write path under paging, where the EPC model dominates",
		new:  newSCBRChurn,
	},
	{
		name: "durable_write",
		why:  "DurableStore PutBatch with a periodic incremental Snapshot and GC: WAL group commit, dirty-shard pack, registry publish",
		new:  newDurableWrite,
	},
	{
		name: "durable_recover",
		why:  "crash recovery of the same store on a cold node: delta-chain walk, verified parallel pull, unpack, WAL replay; the read side of what durable_write produces",
		new:  newDurableRecover,
	},
	{
		name: "billing_job",
		why:  "the smart-grid big-data use case: batched ingest into the sharded store, range scan, sealed-shuffle map/reduce; touches neither wire nor the WAL",
		new:  newBillingJob,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, wd := range workloads {
		if wd.name == name {
			return wd, true
		}
	}
	return workloadDef{}, false
}

// resultFile is what a run leaves under results/.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Float64("seconds", 8, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = run the per-layer trace pass instead of the end-to-end pass")
	quick := fs.Bool("quick", false, "smoke-test sizes: small stores, same code paths")
	out := fs.String("out", "", "result file (default results/<workload|all>-trace<n>.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}

	selected := workloads
	label := "all"
	if *name != "" {
		wd, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected, label = []workloadDef{wd}, wd.name
	}
	const resultsDir = "results"
	file := resultFile{Provenance: collectProvenance(*seed)}
	for _, wd := range selected {
		var (
			res *runResult
			err error
		)
		if *trace == 1 {
			res, err = runTraced(wd, *seed, *seconds, *quick, resultsDir)
		} else {
			res, err = runUntraced(wd, *seed, *seconds, *quick)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wd.name, err)
		}
		if res.Attempted == 0 {
			return fmt.Errorf("%s: no op attempted", wd.name)
		}
		file.Runs = append(file.Runs, res)
		printTable(res)
	}

	path := *out
	if path == "" {
		path = filepath.Join(resultsDir, fmt.Sprintf("%s-trace%d.json", label, *trace))
	}
	if err := writeResultFile(path, &file); err != nil {
		return err
	}
	fmt.Printf("# results: %s\n", path)
	if *name != "" {
		r := file.Runs[0]
		line, err := json.Marshal(contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func writeResultFile(path string, f *resultFile) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printTable prints every metric of one run by name, with its unit.
func printTable(r *runResult) {
	status := "ok"
	if !r.Correct {
		status = "INCORRECT"
	}
	if r.Noisy {
		status += ", noisy"
	}
	fmt.Printf("# %s seed=%d seconds=%g traced=%v ops_attempted=%d ops_failed=%d samples=%d [%s]\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.Samples, status)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-40s %16.4f %s\n", d.Name, m.Value, m.Unit)
	}
}
