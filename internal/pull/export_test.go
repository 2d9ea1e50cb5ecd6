package pull

// runReference forces the scalar reference loop regardless of batch
// support; the differential suite and the BenchmarkPull_* pairs measure
// the kernel against it.
func runReference(cfg Config) (Result, error) { return runMode(cfg, nil) }
