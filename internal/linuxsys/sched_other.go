//go:build !linux

package linuxsys

import "fmt"

// SchedAffinity is unavailable off Linux, so Actuator.Apply fails there
// unless the caller hands NewActuator its own affinity function.
func SchedAffinity(cpus []int) error {
	return fmt.Errorf("linuxsys: sched_setaffinity requires Linux")
}
