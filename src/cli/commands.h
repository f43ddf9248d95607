// Implementations of the `tcsm` command-line tool's subcommands, kept in
// the library so they are unit-testable. Each command takes its argument
// list (excluding the subcommand name) and an output stream, and returns
// a process exit code.
//
// Dataset-file arguments accept either format of docs/FILE_FORMATS.md:
// `.tel` streams (detected by their header; directedness and vertex
// labels come from the file) or legacy SNAP-style edge lists (directed
// via --directed, labels via --labels=<file>).
//
// Each command accepts exactly the flags its usage line names: any other
// `--flag` prints `error: unknown flag --flag` and the usage line, and
// the command returns 2 before doing any work. A numeric flag must parse
// in full: `--vertices=12abc` makes the command throw
// std::invalid_argument, which Main reports as
// `error: --vertices expects an integer, got '12abc'` with exit 2.
#ifndef TCSM_CLI_COMMANDS_H_
#define TCSM_CLI_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace tcsm::cli {

using Args = std::vector<std::string>;

/// tcsm stats <dataset> [--directed] [--labels=<file>]
/// Prints Table III-style dataset characteristics.
int CmdStats(const Args& args, std::ostream& out);

/// tcsm gen <preset|random> [<out.tel>|-] [--scale=S] [--seed=K]
///   [--window=D] [--expiry=explicit] [--vertices=N --edges=M --vlabels=a
///    --elabels=b --parallel=p --directed]
/// Synthesizes a temporal stream and writes it as a `.tel` file
/// (stdout with `-`, the default — `tcsm gen` pipes into `tcsm replay -`).
int CmdGen(const Args& args, std::ostream& out);

/// tcsm convert <in.tel|-> <out.tel|-> [--format=binary|text]
///   [--varint=on|off] [--block-records=N]
/// Re-frames a `.tel` stream between the text and binary v2 framings
/// without touching its contents: header, labels, and every record carry
/// over, so a converted stream replays match-identically. The default
/// --format is the opposite of the input's framing.
int CmdConvert(const Args& args, std::ostream& out);

/// tcsm gen-data <preset|random> <out-file> [--scale=S] [--seed=K]
///   [--vertices=N --edges=M --vlabels=a --elabels=b --parallel=p
///    --directed]
/// Writes a legacy edge list (and a .labels file). Prefer `tcsm gen`.
int CmdGenData(const Args& args, std::ostream& out);

/// tcsm gen-query <dataset> <out-file> [--size=m] [--density=d]
///   [--window=w] [--seed=K] [--directed] [--labels=<file>]
/// Extracts a random-walk query with a density-targeted temporal order;
/// --window is recorded in the query file as its suggested replay delta.
int CmdGenQuery(const Args& args, std::ostream& out);

/// tcsm run <dataset> <query-file> [--window=w] [--directed]
///   [--labels=<file>] [--limit_ms=T] [--threads=N]
///   [--engine=tcm|timing|symbi|local] [--print] [--canonical]
/// Loads the dataset into memory and streams it, reporting
/// occurred/expired counts (or every match with --print). The window
/// falls back to the query file's `w` record, then the `.tel` header.
int CmdRun(const Args& args, std::ostream& out);

/// tcsm replay <stream.tel|-> <query-file>... [--window=w] [--threads=N]
///   [--max-events=N] [--limit_ms=T] [--engine=tcm|timing|symbi|local]
///   [--print] [--canonical] [--json] [--seek-ts=T]
///   [--flight-record=N --flight-dump=FILE [--flight-format=text|binary]]
/// File-driven continuous matching: pulls the stream incrementally off
/// disk (or stdin with `-`) in O(window) memory — the stream is never
/// loaded — and fans events out to one engine per query file across
/// --threads workers. Match-stream output is byte-identical to `run` on
/// the same data (tests/io_roundtrip_test.cpp enforces this).
/// --seek-ts=T starts at the first binary-v2 block covering timestamp T
/// (O(1) via the index footer); --flight-record keeps the last N arrivals
/// in a ring and dumps them to --flight-dump as a replayable `.tel` at
/// exit — error exits included, turning a mid-replay failure into a
/// reproducer.
int CmdReplay(const Args& args, std::ostream& out);

/// tcsm snapshot <dataset> <query-file> [--window=w] [--directed]
///   [--labels=<file>] [--limit_ms=T] [--print]
/// One-shot matching over the full graph (TOM's setting).
int CmdSnapshot(const Args& args, std::ostream& out);

/// Dispatches to a subcommand; prints usage on errors.
int Main(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace tcsm::cli

#endif  // TCSM_CLI_COMMANDS_H_
