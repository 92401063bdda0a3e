package main

import "runtime"

// envInfo is where the numbers were taken. Anything about parallel
// speed-up, and tails beyond p95, mean little when NumCPU is 2 or less.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

func environment(dataDir string) envInfo {
	return envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernelRelease(), DataDirFS: fsType(dataDir),
	}
}
