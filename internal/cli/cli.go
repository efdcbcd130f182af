// Package cli is the subcommand front door the cmd/ binaries share: one
// dispatch, one flag-parse rule and one mapping from a subcommand's error to
// the process exit code — 0 ok (and -h), 1 a failed run, 2 a usage error.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// usageError marks a bad invocation: Run prints it with the usage text and
// exits 2 (a failed run exits 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// Usagef reports a bad invocation with a formatted message.
func Usagef(format string, a ...any) error { return usageError{fmt.Sprintf(format, a...)} }

// errFlagParse marks a flag-parse failure the flag package already reported.
var errFlagParse = errors.New("flag parse error")

// Command runs one subcommand on its arguments.
type Command func(args []string, stdout, stderr io.Writer) error

// Run dispatches one invocation of the binary name and returns its exit code.
func Run(name, usage string, cmds map[string]Command, args []string, stdout, stderr io.Writer) int {
	err := Dispatch(usage, cmds, args, stdout, stderr)
	var bad usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagParse):
		return 2
	case errors.As(err, &bad):
		fmt.Fprintln(stderr, name+":", err)
		fmt.Fprint(stderr, usage)
		return 2
	}
	fmt.Fprintln(stderr, name+":", err)
	return 1
}

// Dispatch hands args to the subcommand args[0] names in cmds (-h prints the
// usage).
func Dispatch(usage string, cmds map[string]Command, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return Usagef("missing subcommand")
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usage)
		return flag.ErrHelp
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		return Usagef("unknown subcommand %q", args[0])
	}
	return cmd(args[1:], stdout, stderr)
}

// Parse parses a subcommand's flags (errors and -h go to stderr), reporting a
// failure the flag package printed as errFlagParse.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errFlagParse
	}
	return err
}
