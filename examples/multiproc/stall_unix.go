//go:build unix

package main

import (
	"os"
	"syscall"
)

// The stall script freezes a livenode kernel-side: SIGSTOP suspends the
// whole process (its period deadlines pass unseen), SIGCONT resumes
// it with its period counter behind real time.
var (
	sigStop os.Signal = syscall.SIGSTOP
	sigCont os.Signal = syscall.SIGCONT
)
