#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"

namespace tcsm::cli {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Cli, GenDataStatsRoundTrip) {
  const std::string edges = TmpPath("cli_data.edges");
  std::ostringstream out;
  ASSERT_EQ(CmdGenData({"random", edges, "--vertices=50", "--edges=400",
                        "--vlabels=3", "--seed=5"},
                       out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("wrote 400 edges"), std::string::npos);

  std::ostringstream stats;
  ASSERT_EQ(CmdStats({edges, "--labels=" + edges + ".labels"}, stats), 0);
  EXPECT_NE(stats.str().find("400"), std::string::npos);
  std::remove(edges.c_str());
  std::remove((edges + ".labels").c_str());
}

TEST(Cli, GenDataPresets) {
  const std::string edges = TmpPath("cli_preset.edges");
  std::ostringstream out;
  ASSERT_EQ(CmdGenData({"lsbench", edges, "--scale=0.05"}, out), 0);
  std::ostringstream bad;
  EXPECT_NE(CmdGenData({"not-a-preset", edges}, bad), 0);
  EXPECT_NE(bad.str().find("unknown preset"), std::string::npos);
  std::remove(edges.c_str());
  std::remove((edges + ".labels").c_str());
}

TEST(Cli, FullPipelineRunAndSnapshot) {
  const std::string edges = TmpPath("cli_pipe.edges");
  const std::string query = TmpPath("cli_pipe.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGenData({"random", edges, "--vertices=40", "--edges=500",
                        "--vlabels=2", "--parallel=2", "--seed=9"},
                       out),
            0);
  const std::string labels = "--labels=" + edges + ".labels";
  std::ostringstream qout;
  ASSERT_EQ(CmdGenQuery({edges, query, "--size=3", "--density=1",
                         "--window=200", "--seed=4", labels},
                        qout),
            0)
      << qout.str();

  std::ostringstream run;
  ASSERT_EQ(CmdRun({edges, query, "--window=200", labels}, run), 0)
      << run.str();
  EXPECT_NE(run.str().find("engine=TCM"), std::string::npos);
  EXPECT_NE(run.str().find("threads=1"), std::string::npos);
  EXPECT_NE(run.str().find("shards=1"), std::string::npos);
  EXPECT_NE(run.str().find("occurred="), std::string::npos);

  // --threads routes through the parallel context, is echoed in the run
  // header (with a note that a single-engine run cannot go faster), and
  // changes nothing about the reported match counts.
  std::ostringstream par;
  ASSERT_EQ(CmdRun({edges, query, "--window=200", labels, "--threads=4"},
                   par),
            0)
      << par.str();
  EXPECT_NE(par.str().find("threads=4"), std::string::npos);
  EXPECT_NE(par.str().find("note: run attaches a single engine"),
            std::string::npos);
  const auto counts = [](const std::string& s) {
    const size_t begin = s.find("occurred=");
    return s.substr(begin, s.find(" elapsed_ms=") - begin);
  };
  EXPECT_EQ(counts(par.str()), counts(run.str()));

  // --shards splits the data graph across vertex partitions. The header
  // records the shard count (and the default thread count, one per
  // shard), and the match counts are identical to the serial run — the
  // sharded context's determinism guarantee.
  std::ostringstream shr;
  ASSERT_EQ(
      CmdRun({edges, query, "--window=200", labels, "--shards=4"}, shr), 0)
      << shr.str();
  EXPECT_NE(shr.str().find("shards=4"), std::string::npos);
  EXPECT_NE(shr.str().find("threads=4"), std::string::npos);
  EXPECT_EQ(counts(shr.str()), counts(run.str()));

  // Only the TCM engine is instantiated over the sharded graph view;
  // asking for a sharded baseline is a named error, not a silent serial
  // fallback.
  std::ostringstream shbad;
  EXPECT_EQ(CmdRun({edges, query, "--window=200", labels, "--shards=2",
                    "--engine=timing"},
                   shbad),
            1);
  EXPECT_NE(shbad.str().find("requires --engine=tcm"), std::string::npos);

  // All engines accept the same pipeline.
  for (const std::string engine : {"timing", "symbi", "local"}) {
    std::ostringstream eout;
    ASSERT_EQ(CmdRun({edges, query, "--window=200", labels,
                      "--engine=" + engine},
                     eout),
              0)
        << engine << ": " << eout.str();
  }

  std::ostringstream snap;
  ASSERT_EQ(CmdSnapshot({edges, query, labels}, snap), 0);
  EXPECT_NE(snap.str().find("matches"), std::string::npos);

  std::remove(edges.c_str());
  std::remove((edges + ".labels").c_str());
  std::remove(query.c_str());
}

TEST(Cli, RunPrintsMatches) {
  const std::string edges = TmpPath("cli_print.edges");
  const std::string query = TmpPath("cli_print.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGenData({"random", edges, "--vertices=10", "--edges=60",
                        "--seed=3"},
                       out),
            0);
  const std::string labels = "--labels=" + edges + ".labels";
  ASSERT_EQ(CmdGenQuery({edges, query, "--size=2", "--density=0",
                         "--window=30", labels},
                        out),
            0);
  std::ostringstream run;
  ASSERT_EQ(CmdRun({edges, query, "--window=30", labels, "--print"}, run),
            0);
  EXPECT_NE(run.str().find("u0:"), std::string::npos);
  std::remove(edges.c_str());
  std::remove((edges + ".labels").c_str());
  std::remove(query.c_str());
}

TEST(Cli, GenTelAndReplay) {
  const std::string tel = TmpPath("cli_gen.tel");
  const std::string query = TmpPath("cli_gen.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=500",
                    "--vlabels=2", "--parallel=2", "--seed=9",
                    "--window=200"},
                   out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("wrote 500 edges"), std::string::npos);

  // .tel files are sniffed by every dataset-consuming subcommand:
  // stats, gen-query (which records the window in the query file)...
  std::ostringstream stats;
  ASSERT_EQ(CmdStats({tel}, stats), 0) << stats.str();
  EXPECT_NE(stats.str().find("500"), std::string::npos);
  std::ostringstream qout;
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1",
                         "--seed=4", "--window=200"},
                        qout),
            0)
      << qout.str();

  // ...and run, which takes its window from the query's w record here.
  std::ostringstream run;
  ASSERT_EQ(CmdRun({tel, query, "--print"}, run), 0) << run.str();

  // replay must report the same matches in the same order as run.
  std::ostringstream replay;
  ASSERT_EQ(CmdReplay({tel, query, "--print"}, replay), 0) << replay.str();
  const auto matches = [](const std::string& s) {
    std::string lines;
    std::istringstream in(s);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && (line[0] == '+' || line[0] == '-')) {
        lines += line + "\n";
      }
    }
    return lines;
  };
  EXPECT_EQ(matches(replay.str()), matches(run.str()));
  EXPECT_NE(matches(run.str()), "");

  // A sharded replay reports the same matches in the same order — the
  // byte-identical stream contract at the CLI surface.
  std::ostringstream shreplay;
  ASSERT_EQ(CmdReplay({tel, query, "--print", "--shards=2"}, shreplay), 0)
      << shreplay.str();
  EXPECT_NE(shreplay.str().find("shards=2"), std::string::npos);
  EXPECT_EQ(matches(shreplay.str()), matches(run.str()));

  // Sharded or not, the pool fans out engines, so one query cannot run
  // faster on more threads: --shards=2 --threads=2 says so and, from run
  // and from replay, reports the serial matches in the serial order.
  const Args sharded_args{tel, query, "--print", "--shards=2", "--threads=2"};
  for (const bool use_replay : {false, true}) {
    SCOPED_TRACE(use_replay ? "replay" : "run");
    std::ostringstream o;
    ASSERT_EQ(use_replay ? CmdReplay(sharded_args, o) : CmdRun(sharded_args, o),
              0)
        << o.str();
    EXPECT_NE(o.str().find("cannot speed up one engine"), std::string::npos);
    EXPECT_EQ(matches(o.str()), matches(run.str()));
  }

  // Several query files fan out across threads; summary is per query.
  std::ostringstream multi;
  ASSERT_EQ(CmdReplay({tel, query, query, "--threads=2"}, multi), 0)
      << multi.str();
  EXPECT_NE(multi.str().find("threads=2"), std::string::npos);
  EXPECT_NE(multi.str().find("q1"), std::string::npos);

  // --json emits one machine-readable line — and stays pure JSON even
  // with flags that otherwise print advisory lines first.
  std::ostringstream json;
  ASSERT_EQ(CmdReplay({tel, query, "--json"}, json), 0) << json.str();
  EXPECT_EQ(json.str().rfind("{\"stream\":", 0), 0u);
  EXPECT_NE(json.str().find("\"completed\":true"), std::string::npos);
  std::ostringstream json2;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--canonical", "--threads=4"},
                      json2),
            0);
  EXPECT_EQ(json2.str().rfind("{\"stream\":", 0), 0u) << json2.str();
  EXPECT_NE(json2.str().find("\"shards\":1"), std::string::npos);
  std::ostringstream json3;
  ASSERT_EQ(CmdReplay({tel, query, query, "--json", "--shards=2"}, json3),
            0);
  EXPECT_EQ(json3.str().rfind("{\"stream\":", 0), 0u) << json3.str();
  EXPECT_NE(json3.str().find("\"shards\":2"), std::string::npos);

  // --max-events caps the arrivals but still expires what arrived.
  std::ostringstream capped;
  ASSERT_EQ(CmdReplay({tel, query, "--max-events=100"}, capped), 0);
  EXPECT_NE(capped.str().find("events=200"), std::string::npos)
      << capped.str();

  // --canonical works without --print (as in run): group size reported.
  std::ostringstream canon;
  ASSERT_EQ(CmdReplay({tel, query, "--canonical"}, canon), 0);
  EXPECT_NE(canon.str().find("automorphism group size"), std::string::npos);

  // Query files recording different windows must not be silently run at
  // the first file's window.
  const std::string query2 = TmpPath("cli_gen2.tq");
  ASSERT_EQ(CmdGenQuery({tel, query2, "--size=3", "--density=1",
                         "--seed=4", "--window=150"},
                        out),
            0);
  std::ostringstream conflict;
  EXPECT_EQ(CmdReplay({tel, query, query2}, conflict), 1);
  EXPECT_NE(conflict.str().find("disagree"), std::string::npos);
  std::ostringstream forced;
  EXPECT_EQ(CmdReplay({tel, query, query2, "--window=200"}, forced), 0);

  std::remove(tel.c_str());
  std::remove(query.c_str());
  std::remove(query2.c_str());
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string MatchLines(const std::string& s) {
  std::string lines;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && (line[0] == '+' || line[0] == '-')) {
      lines += line + "\n";
    }
  }
  return lines;
}

TEST(Cli, ConvertAndBinaryReplay) {
  const std::string text_tel = TmpPath("cli_cv.tel");
  const std::string bin_tel = TmpPath("cli_cv_bin.tel");
  const std::string cv_bin = TmpPath("cli_cv_cv.tel");
  const std::string cv_text = TmpPath("cli_cv_back.tel");
  const std::string query = TmpPath("cli_cv.tq");
  const Args gen_common = {"random", "--vertices=30", "--edges=200",
                           "--vlabels=2", "--seed=11", "--window=60"};
  std::ostringstream out;
  Args gen_text = gen_common;
  gen_text.insert(gen_text.begin() + 1, text_tel);
  ASSERT_EQ(CmdGen(gen_text, out), 0) << out.str();
  Args gen_bin = gen_common;
  gen_bin.insert(gen_bin.begin() + 1, bin_tel);
  gen_bin.push_back("--format=binary");
  ASSERT_EQ(CmdGen(gen_bin, out), 0) << out.str();
  ASSERT_EQ(CmdGenQuery({text_tel, query, "--size=3", "--density=1",
                         "--seed=4", "--window=60"},
                        out),
            0)
      << out.str();

  // convert defaults to the opposite framing; text -> binary must be
  // byte-identical to generating binary directly.
  std::ostringstream cv1;
  ASSERT_EQ(CmdConvert({text_tel, cv_bin}, cv1), 0) << cv1.str();
  EXPECT_NE(cv1.str().find("converted 200 records"), std::string::npos);
  EXPECT_NE(cv1.str().find("(text -> binary)"), std::string::npos);
  EXPECT_EQ(Slurp(cv_bin), Slurp(bin_tel));

  // ...and binary -> text must restore the original file exactly.
  std::ostringstream cv2;
  ASSERT_EQ(CmdConvert({cv_bin, cv_text}, cv2), 0) << cv2.str();
  EXPECT_NE(cv2.str().find("(binary -> text)"), std::string::npos);
  EXPECT_EQ(Slurp(cv_text), Slurp(text_tel));

  // The replayed match stream is framing-independent.
  std::ostringstream text_replay, bin_replay;
  ASSERT_EQ(CmdReplay({text_tel, query, "--print"}, text_replay), 0);
  ASSERT_EQ(CmdReplay({bin_tel, query, "--print"}, bin_replay), 0);
  EXPECT_NE(MatchLines(text_replay.str()), "");
  EXPECT_EQ(MatchLines(bin_replay.str()), MatchLines(text_replay.str()));

  // Flag validation.
  std::ostringstream e1;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--format=msgpack"}, e1), 1);
  EXPECT_NE(e1.str().find("bad --format"), std::string::npos);
  std::ostringstream e2;
  EXPECT_EQ(CmdConvert({bin_tel, cv_text, "--varint=off"}, e2), 1);
  std::ostringstream e3;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--varint=maybe"}, e3), 1);
  EXPECT_NE(e3.str().find("bad --varint"), std::string::npos);
  std::ostringstream e4;
  EXPECT_EQ(CmdConvert({text_tel, cv_bin, "--block-records=0"}, e4), 1);
  std::ostringstream e5;
  EXPECT_EQ(CmdConvert({text_tel}, e5), 2);  // usage: two positionals

  std::remove(text_tel.c_str());
  std::remove(bin_tel.c_str());
  std::remove(cv_bin.c_str());
  std::remove(cv_text.c_str());
  std::remove(query.c_str());
}

TEST(Cli, ReplaySeekAndFlightRecorder) {
  const std::string tel = TmpPath("cli_seek.tel");
  const std::string text_tel = TmpPath("cli_seek_text.tel");
  const std::string query = TmpPath("cli_seek.tq");
  const std::string dump = TmpPath("cli_seek_dump.tel");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=30", "--edges=200",
                    "--vlabels=2", "--seed=11", "--window=60",
                    "--format=binary", "--block-records=16"},
                   out),
            0)
      << out.str();
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1", "--seed=4",
                         "--window=60"},
                        out),
            0)
      << out.str();

  // Seeking to before the stream replays the whole stream.
  std::ostringstream full, seek0;
  ASSERT_EQ(CmdReplay({tel, query, "--print"}, full), 0);
  ASSERT_EQ(CmdReplay({tel, query, "--print", "--seek-ts=-100"}, seek0), 0)
      << seek0.str();
  EXPECT_EQ(MatchLines(seek0.str()), MatchLines(full.str()));

  // A mid-stream seek emits a (possibly empty) tail of the match stream
  // and must not crash; exact suffix equality at window-complete
  // positions is pinned by io_roundtrip_test.
  std::ostringstream mid;
  ASSERT_EQ(CmdReplay({tel, query, "--seek-ts=500"}, mid), 0) << mid.str();

  // Seek needs the binary index.
  ASSERT_EQ(CmdConvert({tel, text_tel}, out), 0);
  std::ostringstream noindex;
  EXPECT_EQ(CmdReplay({text_tel, query, "--seek-ts=5"}, noindex), 1);
  EXPECT_NE(noindex.str().find("binary"), std::string::npos);

  // Flight recorder: dump written, reports ring occupancy, replayable.
  std::ostringstream fl;
  ASSERT_EQ(CmdReplay({tel, query, "--flight-record=50",
                       "--flight-dump=" + dump},
                      fl),
            0)
      << fl.str();
  EXPECT_NE(fl.str().find("flight recorder: dumped 50 of 200 arrivals"),
            std::string::npos)
      << fl.str();
  std::ostringstream fromdump;
  EXPECT_EQ(CmdReplay({dump, query}, fromdump), 0) << fromdump.str();

  // Flag validation: the pair goes together, N must be positive, format
  // must be a known framing.
  std::ostringstream b1;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-record=50"}, b1), 1);
  EXPECT_NE(b1.str().find("go together"), std::string::npos);
  std::ostringstream b2;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-dump=" + dump}, b2), 1);
  std::ostringstream b3;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-record=0",
                       "--flight-dump=" + dump},
                      b3),
            1);
  std::ostringstream b4;
  EXPECT_EQ(CmdReplay({tel, query, "--flight-format=binary"}, b4), 1);

  std::remove(tel.c_str());
  std::remove(text_tel.c_str());
  std::remove(query.c_str());
  std::remove(dump.c_str());
}

TEST(Cli, GenToStdoutIsParseableTel) {
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", "-", "--vertices=20", "--edges=50",
                    "--seed=3", "--window=25"},
                   out),
            0);
  EXPECT_EQ(out.str().rfind("tel 1 ", 0), 0u) << out.str().substr(0, 40);
  EXPECT_NE(out.str().find("window=25"), std::string::npos);
}

TEST(Cli, ReplayErrors) {
  std::ostringstream usage;
  EXPECT_EQ(CmdReplay({"only-stream"}, usage), 2);
  std::ostringstream missing;
  EXPECT_EQ(CmdReplay({"/no/such.tel", "/no/such.tq"}, missing), 1);
  EXPECT_NE(missing.str().find("error"), std::string::npos);

  // A malformed stream surfaces its line-numbered diagnostic.
  const std::string tel = TmpPath("cli_bad.tel");
  {
    std::ofstream f(tel);
    f << "tel 1 undirected vertices=3 window=5\ne 0 1 nope\n";
  }
  const std::string query = TmpPath("cli_bad.tq");
  {
    std::ofstream f(query);
    f << "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  }
  std::ostringstream bad;
  EXPECT_EQ(CmdReplay({tel, query}, bad), 1);
  EXPECT_NE(bad.str().find(":2:"), std::string::npos) << bad.str();
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, UsageAndErrors) {
  std::ostringstream out;
  EXPECT_EQ(CmdStats({}, out), 2);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
  std::ostringstream out2;
  EXPECT_EQ(CmdRun({"a"}, out2), 2);  // missing query + window
  std::ostringstream out3;
  EXPECT_NE(CmdStats({"/no/such/file"}, out3), 0);
  EXPECT_NE(out3.str().find("error"), std::string::npos);
}

TEST(Cli, RunReportsTheDriversWindowErrors) {
  // `run` resolves --window, else the query's w record, else the .tel
  // header, and leaves the checks to the stream driver, whose Status it
  // prints as "error: ..." with exit 1 — the same contract as `replay`.
  const std::string tel = TmpPath("cli_nowin.tel");
  {
    std::ofstream f(tel);
    f << "tel 1 undirected vertices=3\ne 0 1 1\ne 1 2 2\n";
  }
  const std::string query = TmpPath("cli_nowin.tq");
  {
    std::ofstream f(query);
    f << "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  }
  std::ostringstream none;
  EXPECT_EQ(CmdRun({tel, query}, none), 1);
  EXPECT_NE(none.str().find("error: InvalidArgument"), std::string::npos)
      << none.str();
  EXPECT_NE(none.str().find("no expiry window"), std::string::npos)
      << none.str();
  EXPECT_EQ(none.str().find("events="), std::string::npos) << none.str();

  std::ostringstream huge;
  EXPECT_EQ(CmdRun({tel, query, "--window=" + std::to_string(int64_t{1} << 62)},
                   huge),
            1);
  EXPECT_NE(huge.str().find("error: InvalidArgument"), std::string::npos)
      << huge.str();
  EXPECT_NE(huge.str().find("window too large"), std::string::npos)
      << huge.str();

  std::ostringstream ok;
  EXPECT_EQ(CmdRun({tel, query, "--window=5"}, ok), 0) << ok.str();
  EXPECT_NE(ok.str().find("events=4"), std::string::npos) << ok.str();
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, ParallelismFlagsAreCapped) {
  // --threads and --shards above 256 are rejected before any context (and
  // hence any thread or shard graph) is built: error + exit 1, no summary.
  const std::string tel = TmpPath("cli_cap.tel");
  {
    std::ofstream f(tel);
    f << "tel 1 undirected vertices=3 window=5\ne 0 1 1\ne 1 2 2\n";
  }
  const std::string query = TmpPath("cli_cap.tq");
  {
    std::ofstream f(query);
    f << "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  }
  for (const std::string flag : {"--threads=257", "--shards=257"}) {
    const std::string name = flag.substr(0, flag.find('='));
    std::ostringstream run;
    EXPECT_EQ(CmdRun({tel, query, flag}, run), 1) << flag;
    EXPECT_NE(run.str().find("error: " + name + "=257 exceeds the maximum "
                             "of 256"),
              std::string::npos)
        << run.str();
    EXPECT_EQ(run.str().find("occurred="), std::string::npos) << run.str();
    std::ostringstream replay;
    EXPECT_EQ(CmdReplay({tel, query, flag}, replay), 1) << flag;
    EXPECT_NE(replay.str().find("error: " + name + "=257 exceeds the "
                                "maximum of 256"),
              std::string::npos)
        << replay.str();
    EXPECT_EQ(replay.str().find("occurred="), std::string::npos)
        << replay.str();
  }
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, UnknownFlagIsAUsageError) {
  // A typo'd flag must not silently change the run: `--thread=4` would
  // otherwise replay serially with exit 0. Both streaming subcommands
  // name the flag, print their usage line and exit 2 before any work.
  const std::string tel = TmpPath("cli_typo.tel");
  {
    std::ofstream f(tel);
    f << "tel 1 undirected vertices=3 window=5\ne 0 1 1\ne 1 2 2\n";
  }
  const std::string query = TmpPath("cli_typo.tq");
  {
    std::ofstream f(query);
    f << "t 2 1\nv 0 0\nv 1 0\ne 0 0 1\n";
  }
  std::ostringstream run;
  EXPECT_EQ(CmdRun({tel, query, "--print", "--shard=2"}, run), 2);
  EXPECT_EQ(run.str().rfind("error: unknown flag --shard\nusage: tcsm run ",
                            0),
            0u)
      << run.str();
  EXPECT_EQ(run.str().find("occurred="), std::string::npos) << run.str();

  std::ostringstream replay;
  EXPECT_EQ(CmdReplay({tel, query, query, "--print", "--thread=4"}, replay),
            2);
  EXPECT_EQ(replay.str().rfind(
                "error: unknown flag --thread\nusage: tcsm replay ", 0),
            0u)
      << replay.str();
  EXPECT_EQ(replay.str().find("occurred="), std::string::npos)
      << replay.str();

  // Through Main, the exit code reaches the shell unchanged.
  const char* argv[] = {"tcsm", "replay", tel.c_str(), query.c_str(),
                        "--thread=4"};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(Main(5, const_cast<char**>(argv), out, err), 2);
  EXPECT_EQ(out.str().rfind("error: unknown flag --thread\n", 0), 0u);
  std::remove(tel.c_str());
  std::remove(query.c_str());
}

TEST(Cli, EveryFlagInAUsageLineIsAccepted) {
  // The accepted-flag lists and the usage lines are written separately;
  // every flag a usage line advertises must pass the unknown-flag check.
  // With no positional arguments each command stops at its usage line,
  // so no flag value is parsed and no work starts.
  using Cmd = int (*)(const Args&, std::ostream&);
  const std::vector<std::pair<std::string, Cmd>> commands = {
      {"stats", CmdStats},       {"gen", CmdGen},
      {"convert", CmdConvert},   {"gen-data", CmdGenData},
      {"gen-query", CmdGenQuery}, {"run", CmdRun},
      {"replay", CmdReplay},     {"snapshot", CmdSnapshot}};
  const std::regex flag_re("--([a-z_-]+)");
  for (const auto& [name, cmd] : commands) {
    std::ostringstream usage;
    ASSERT_EQ(cmd({}, usage), 2) << name;
    ASSERT_EQ(usage.str().rfind("usage: tcsm " + name + " ", 0), 0u)
        << usage.str();
    std::set<std::string> flags;
    const std::string text = usage.str();
    for (std::sregex_iterator it(text.begin(), text.end(), flag_re), end;
         it != end; ++it) {
      flags.insert((*it)[1]);
    }
    EXPECT_FALSE(flags.empty()) << name;
    if (name == "replay") {
      EXPECT_EQ(flags.count("json"), 1u);  // perfbench's `replay --json`
    }
    for (const std::string& flag : flags) {
      std::ostringstream out;
      EXPECT_EQ(cmd({"--" + flag}, out), 2) << name << " --" << flag;
      EXPECT_EQ(out.str(), text) << name << " --" << flag;
    }
  }
}

TEST(Cli, MainDispatch) {
  std::ostringstream out;
  std::ostringstream err;
  const char* argv0[] = {"tcsm"};
  EXPECT_EQ(Main(1, const_cast<char**>(argv0), out, err), 2);
  EXPECT_NE(err.str().find("subcommands"), std::string::npos);

  const char* argv1[] = {"tcsm", "frobnicate"};
  std::ostringstream err2;
  EXPECT_EQ(Main(2, const_cast<char**>(argv1), out, err2), 2);
}

TEST(Cli, MalformedNumericFlagsAreUsageErrors) {
  // A numeric flag must parse in full: a trailing-garbage value is not
  // silently truncated (12abc -> 12) and a non-number does not escape as
  // an uncaught exception; both are named usage errors, exit 2, before
  // any stream is generated.
  for (const std::string value : {"zz", "12abc"}) {
    const std::string flag = "--vertices=" + value;
    const char* argv[] = {"tcsm", "gen", "random", "-", flag.c_str()};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main(5, const_cast<char**>(argv), out, err), 2) << value;
    EXPECT_EQ(out.str(),
              "error: --vertices expects an integer, got '" + value + "'\n");
  }
  const char* argv[] = {"tcsm", "gen", "random", "-", "--parallel=1.5x"};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(Main(5, const_cast<char**>(argv), out, err), 2);
  EXPECT_EQ(out.str(), "error: --parallel expects a number, got '1.5x'\n");
}

TEST(Cli, EngineTimeReportedPerRunAndPerQuery) {
  // Engine time has one record, EngineCounters: `replay --json` reports
  // the run's update/search milliseconds and one pair per query, and the
  // per-query pairs sum to the run totals (up to the printed rounding).
  const std::string tel = TmpPath("cli_etime.tel");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=600",
                    "--vlabels=2", "--seed=3", "--window=150"},
                   out),
            0)
      << out.str();
  std::vector<std::string> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(TmpPath("cli_etime" + std::to_string(i) + ".tq"));
    ASSERT_EQ(CmdGenQuery({tel, queries.back(), "--size=3", "--density=0.5",
                           "--window=150", "--seed=" + std::to_string(i + 1)},
                          out),
              0)
        << out.str();
  }
  const auto values = [](const std::string& s, const std::string& key) {
    std::vector<double> found;
    for (size_t at = s.find(key); at != std::string::npos;
         at = s.find(key, at + 1)) {
      found.push_back(std::stod(s.substr(at + key.size())));
    }
    return found;
  };
  for (const std::string threads : {"--threads=1", "--threads=2"}) {
    SCOPED_TRACE(threads);
    Args args{tel};
    args.insert(args.end(), queries.begin(), queries.end());
    args.push_back(threads);
    std::ostringstream text;
    ASSERT_EQ(CmdReplay(args, text), 0) << text.str();
    EXPECT_NE(text.str().find(" update_ms="), std::string::npos) << text.str();
    EXPECT_NE(text.str().find(" search_ms="), std::string::npos) << text.str();

    args.push_back("--json");
    std::ostringstream json;
    ASSERT_EQ(CmdReplay(args, json), 0) << json.str();
    for (const std::string key : {"\"update_ms\":", "\"search_ms\":"}) {
      // The run total comes first, then one value per query.
      const std::vector<double> ms = values(json.str(), key);
      ASSERT_EQ(ms.size(), 1 + queries.size()) << key << json.str();
      double sum = 0;
      for (size_t i = 1; i < ms.size(); ++i) sum += ms[i];
      EXPECT_NEAR(sum, ms[0], 0.001 * ms.size()) << key << json.str();
      EXPECT_GT(ms[0], 0.0) << key << json.str();
    }
  }
  std::remove(tel.c_str());
  for (const std::string& q : queries) std::remove(q.c_str());
}

TEST(Cli, ObservabilityFlags) {
  const std::string tel = TmpPath("cli_obs.tel");
  const std::string query = TmpPath("cli_obs.tq");
  std::ostringstream out;
  ASSERT_EQ(CmdGen({"random", tel, "--vertices=40", "--edges=500",
                    "--vlabels=2", "--seed=9", "--window=200"},
                   out),
            0);
  ASSERT_EQ(CmdGenQuery({tel, query, "--size=3", "--density=1", "--seed=4",
                         "--window=200"},
                        out),
            0);

  // --stats-every emits periodic [stats] ticks and --metrics adds the
  // per-stage summary table to the text report.
  std::ostringstream stats;
  ASSERT_EQ(CmdReplay({tel, query, "--stats-every=100"}, stats), 0)
      << stats.str();
  EXPECT_NE(stats.str().find("[stats] events="), std::string::npos)
      << stats.str();
  EXPECT_NE(stats.str().find(" ev_per_s="), std::string::npos);
  EXPECT_NE(stats.str().find("arrival_batch"), std::string::npos)
      << "per-stage summary table missing";

  // The text report always carries the stream position of the memory
  // peak next to the peak itself.
  EXPECT_NE(stats.str().find(" peak_at="), std::string::npos);

  // --trace-out writes a chrome-trace file: well-formed header, spans
  // for the streaming stages, and a confirmation line naming the file.
  const std::string trace = TmpPath("cli_obs_trace.json");
  std::ostringstream traced;
  ASSERT_EQ(CmdReplay({tel, query, "--shards=2", "--threads=2",
                       "--trace-out=" + trace},
                      traced),
            0)
      << traced.str();
  EXPECT_NE(traced.str().find("wrote trace: "), std::string::npos);
  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good()) << "trace file was not written";
  std::stringstream buf;
  buf << tf.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"arrival_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // --json with metrics on stays one pure JSON line (plus opt-in stats
  // ticks) and reports the peak's event index and the stage summary.
  std::ostringstream js;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--metrics"}, js), 0)
      << js.str();
  EXPECT_EQ(js.str().rfind("{\"stream\":", 0), 0u) << js.str();
  EXPECT_NE(js.str().find("\"peak_event_index\":"), std::string::npos);
  EXPECT_NE(js.str().find("\"stages\":{"), std::string::npos);
  std::ostringstream js2;
  ASSERT_EQ(CmdReplay({tel, query, "--json", "--stats-every=100"}, js2), 0);
  EXPECT_EQ(js2.str().rfind("{\"type\":\"stats\",", 0), 0u) << js2.str();
  EXPECT_NE(js2.str().find("\n{\"stream\":"), std::string::npos);

  // Contradictory and malformed flag combinations are named errors.
  std::ostringstream contra;
  EXPECT_EQ(CmdReplay({tel, query, "--metrics=off", "--stats-every=10"},
                      contra),
            1);
  EXPECT_NE(contra.str().find("contradicts"), std::string::npos);
  std::ostringstream badv;
  EXPECT_EQ(CmdReplay({tel, query, "--metrics=sideways"}, badv), 1);
  EXPECT_NE(badv.str().find("bad --metrics"), std::string::npos);

  // Non-streaming subcommands reject the observability flags instead of
  // silently ignoring them.
  std::ostringstream rej;
  EXPECT_EQ(CmdStats({tel, "--metrics"}, rej), 2);
  EXPECT_NE(rej.str().find("only applies to streaming subcommands"),
            std::string::npos)
      << rej.str();
  std::ostringstream rej2;
  EXPECT_EQ(CmdGenQuery({tel, query, "--size=3", "--window=200",
                         "--trace-out=x.json"},
                        rej2),
            2);
  EXPECT_NE(rej2.str().find("not 'gen-query'"), std::string::npos);
  std::ostringstream rej3;
  EXPECT_EQ(CmdSnapshot({tel, query, "--stats-every=5"}, rej3), 2);
  EXPECT_NE(rej3.str().find("not 'snapshot'"), std::string::npos);

  std::remove(tel.c_str());
  std::remove(query.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, CanonicalFlagReported) {
  const std::string edges = TmpPath("cli_canon.edges");
  const std::string query = TmpPath("cli_canon.query");
  std::ostringstream out;
  ASSERT_EQ(CmdGenData({"random", edges, "--vertices=30", "--edges=300",
                        "--seed=8"},
                       out),
            0);
  const std::string labels = "--labels=" + edges + ".labels";
  ASSERT_EQ(CmdGenQuery({edges, query, "--size=3", "--density=0",
                         "--window=100", labels},
                        out),
            0);
  std::ostringstream run;
  ASSERT_EQ(
      CmdRun({edges, query, "--window=100", labels, "--canonical"}, run), 0);
  EXPECT_NE(run.str().find("automorphism group size"), std::string::npos);
  std::remove(edges.c_str());
  std::remove((edges + ".labels").c_str());
  std::remove(query.c_str());
}

}  // namespace
}  // namespace tcsm::cli
