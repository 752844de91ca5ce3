// SweepJournal — a JSONL record of completed sweep points for kill+resume.
//
// Every completed experiment is appended as one JSON line holding the config
// fingerprint and the full prediction, and record() does not return until
// the line is fsync()ed — fsync-before-ack, so an entry a caller has been
// told about survives kill -9 and power loss, not just process death.
// Reopening the same path loads all parseable lines; a torn final line from
// a killed process (no trailing newline) is *truncated away* before the
// journal reopens for append, because appending after torn bytes would glue
// the next record onto them and silently lose both. Doubles are serialized
// as the 16-hex-digit bit pattern of the IEEE-754 value, so a resumed sweep
// reproduces report bytes exactly (the byte-identity contract in DESIGN.md).
//
// The fingerprint hashes every config field the prediction depends on —
// including all ProcessorConfig *values*, not just its name, because
// ablation reports mutate processor parameters without renaming them.
//
// Journaled results carry everything an ExperimentResult holds (prediction,
// power, verification).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "core/runner.hpp"

namespace fibersim::core {

class SweepJournal {
 public:
  /// Open (creating if absent) the journal at `path`, loading every valid
  /// line already present.
  explicit SweepJournal(std::string path);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Value fingerprint of everything the result depends on.
  static std::uint64_t fingerprint(const ExperimentConfig& config);

  /// If `config` was journaled, fill `*out` (with `out->config = config`)
  /// and return true. Thread-safe.
  bool lookup(const ExperimentConfig& config, ExperimentResult* out) const;

  /// Append one completed point and fsync before returning, so a true
  /// return means the entry is durable (ack only after this). Thread-safe;
  /// re-recording the same fingerprint is a durable no-op (returns true).
  /// Returns false if the write or fsync failed — the entry is then only
  /// in memory and callers must not promise durability for it.
  bool record(const ExperimentConfig& config, const ExperimentResult& result);

  /// Entries loaded from disk when the journal was opened.
  std::size_t loaded() const { return loaded_; }
  /// Torn-tail bytes truncated away on open (0 after a clean shutdown).
  std::size_t recovered_tail_bytes() const { return tail_bytes_; }
  /// Lookups served from the journal so far.
  std::size_t hits() const;
  const std::string& path() const { return path_; }

 private:
  struct Stored {
    trace::JobPrediction prediction;
    machine::PowerEstimate power;
    bool verified = false;
    double check_value = 0.0;
    std::string check_description;
  };

  /// Parse one journal line; false for a torn or foreign line.
  static bool parse_line(std::string_view line, std::uint64_t* key,
                         Stored* out);

  std::string path_;
  std::size_t loaded_ = 0;
  std::size_t tail_bytes_ = 0;
  mutable std::mutex mutex_;
  mutable std::size_t hits_ = 0;
  std::map<std::uint64_t, Stored> entries_;
  int fd_ = -1;  // O_APPEND fd; write() + fsync() per record
};

}  // namespace fibersim::core
