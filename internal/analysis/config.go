package analysis

// This file pins the repository's invariant surface: which packages
// are deterministic, where the wall clock is legitimate, and where
// the nil-safe instrument contract is mandatory. docs/ARCHITECTURE.md
// ("Invariants and how they're enforced") is the prose counterpart.

// deterministicPackages must produce bit-identical output for
// identical input, independent of Parallelism, Shards or host timing:
// the solver core, the control loop, the shard coordinator, the
// scheduler, forecasting, the simulation kernel, the durable store
// and the trace codec.
var deterministicPackages = []string{
	"dynplace/internal/core",
	"dynplace/internal/control",
	"dynplace/internal/shard",
	"dynplace/internal/scheduler",
	"dynplace/internal/forecast",
	"dynplace/internal/sim",
	"dynplace/internal/store",
	"dynplace/internal/trace",
	"dynplace/internal/flow",
	"dynplace/internal/rpf",
	"dynplace/internal/txn",
	"dynplace/internal/batch",
	"dynplace/internal/cluster",
}

// DefaultClockConfig is the repository allowlist for wall-clock
// reads: command mains, the experiment harness (it measures real
// elapsed time), the observability layer (span and histogram timing),
// and the WallClock implementation itself inside the
// otherwise-deterministic daemon package.
func DefaultClockConfig() ClockHygieneConfig {
	return ClockHygieneConfig{
		AllowedPackages: []string{
			"dynplace/cmd/",
			"dynplace/internal/experiments",
			"dynplace/internal/obs",
		},
		AllowedFiles: map[string][]string{
			"dynplace/internal/daemon": {"clock.go"},
		},
	}
}

// DefaultDetRangeConfig scopes detrange to the packages whose output
// order is part of the bit-identical contract.
func DefaultDetRangeConfig() DetRangeConfig {
	return DetRangeConfig{Packages: deterministicPackages}
}

// DefaultNilSafeConfig makes the nilsafe marker mandatory in the
// observability layer, where the all-instruments-are-nil-safe-no-ops
// contract originates.
func DefaultNilSafeConfig() NilSafeConfig {
	return NilSafeConfig{Packages: []string{"dynplace/internal/obs"}}
}

// DefaultAnalyzers returns the five dynplacevet analyzers configured
// for this repository.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		ClockHygiene(DefaultClockConfig()),
		DetRange(DefaultDetRangeConfig()),
		LockGuard(),
		ErrWrap(),
		NilSafe(DefaultNilSafeConfig()),
	}
}

// Names returns the analyzer names dynplacevet ships, in display
// order — the valid targets of a //dynplace:ignore directive. Used by
// cmd/doccheck to validate directives textually without loading
// packages.
func Names() []string {
	return []string{"clockhygiene", "detrange", "lockguard", "errwrap", "nilsafe"}
}
