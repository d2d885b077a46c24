package coup

import "repro/internal/workloads"

// Workload is one benchmark instance: it sizes and initializes simulated
// memory, provides the per-thread kernel, and validates the final memory
// image against a sequential reference. It is the simulator-facing
// interface from internal/workloads, re-exported so RunSpec.Make and the
// built-in workloads share one type.
type Workload = workloads.Workload

// WorkloadParams carries the size and shape knobs a built-in workload
// understands (pixels, bins, graph scale, ...). Zero fields take
// per-workload defaults; each workload's Description names the fields it
// reads.
type WorkloadParams = workloads.Params

// WorkloadInfo describes one built-in workload: its Name (the lookup key,
// e.g. "hist"), a one-line Description naming the paper table/figure it
// reproduces and the WorkloadParams fields it uses, and New, which builds
// a fresh instance (workloads are single-run).
type WorkloadInfo = workloads.Info

// Workloads returns every built-in workload, sorted by name: the Table 2
// applications and the Sec 5.4 reference-counting family.
func Workloads() []WorkloadInfo { return workloads.All() }

// WorkloadNames returns the sorted names of every built-in workload.
func WorkloadNames() []string { return workloads.Names() }

// LookupWorkload resolves a workload by name, case-insensitively. Unknown
// names return an error wrapping ErrUnknownWorkload that lists the
// workload names.
func LookupWorkload(name string) (WorkloadInfo, error) {
	in, ok := workloads.ByName(name)
	if !ok {
		return WorkloadInfo{}, unknownNameError(ErrUnknownWorkload, name, WorkloadNames())
	}
	return in, nil
}
