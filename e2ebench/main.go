// Command e2ebench is the SkyServer end-to-end benchmark. It builds a
// SkyServer in-process (core.Open plus a public web.Server on a loopback
// listener), drives one seeded traffic mix at it over HTTP from this
// process, checks every answer, and prints every metric by name and
// unit. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	e2ebench --workload explorer --seed 1 --seconds 20 --trace 0
//	e2ebench compare A.json B.json
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// splits the run in two halves at the same offered load: the first is
// untraced and yields the layer counters, the second records spans
// around the calls into each layer and yields the per-layer timings.
// BENCHMARK.json names the workloads with their reasons and the metrics
// with their units; spec.json holds the workload parameters and each
// metric's reason and the metric it should move. run.sh
// builds the command from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same requests")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result files, span dumps and job spill files")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fatalf("usage: e2ebench compare A.json B.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(1), flag.Arg(2)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	sp, err := loadSpec(".")
	if err != nil {
		fatalf("%v", err)
	}
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{
		spec:     sp,
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		out:      *out,
		log:      os.Stderr,
	}
	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if err := finish(res, sp, *out, os.Stdout); err != nil {
		fatalf("%s: %v", *workload, err)
	}
}

// finish checks that res carries every metric its output line needs,
// prints its report, writes its result file under out and prints the
// output line last.
func finish(res *result, sp *spec, out string, w io.Writer) error {
	if err := res.validate(sp); err != nil {
		return err
	}
	res.printReport(w)
	path := filepath.Join(out, "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, btoi(res.Traced)))
	if err := writeJSON(path, res); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	line, err := json.Marshal(res.summary(sp))
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
