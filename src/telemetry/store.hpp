#pragma once

/// @file store.hpp
/// Telemetry dataset persistence and the pluggable reader registry.
///
/// The paper's generalized RAPS reads "different types of bespoke telemetry
/// datasets" through a pluggable architecture (Section V; e.g. Frontier's
/// internal schema vs the public PM100 dataset). Here a TelemetryReader is
/// an interface keyed by format name in a registry; the library ships two
/// native formats plus test-registered synthetic adapters:
///
///  - "exadigit-csv": manifest.json + jobs.json + long-format channel CSVs
///    (system.csv / cdu.csv / facility.csv with tag,channel,time_s,value
///    rows). Human-readable; numbers are written in shortest round-trip
///    form, so save -> load -> save is bit-identical.
///  - "exadigit-bin": manifest.json + jobs.json + channels.bin, a little-
///    endian block of contiguous per-channel (times, values) double arrays.
///    Written and read streaming, channel at a time — a 183-day dataset
///    never materializes row-of-strings intermediates.
///
/// Both native loads are single-pass and columnar: each channel file is
/// parsed exactly once into a TelemetryFrame (see frame.hpp), then the
/// frame's arrays are moved into the TelemetryDataset schema slots. The
/// original per-channel-rescan CSV loader lives on in the store tests as
/// the correctness reference the columnar and binary paths are validated
/// against.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/frame.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

class Json;

/// Native dataset format names (manifest.json "format" values).
inline constexpr const char* kExadigitCsvFormat = "exadigit-csv";
inline constexpr const char* kExadigitBinFormat = "exadigit-bin";

/// Process-wide dataset I/O counters (atomically maintained; a snapshot is
/// returned). Tests assert single-pass behavior through these: loading an
/// exadigit-csv dataset must bump csv_file_parses by exactly one per
/// channel file, however many channels each file carries.
struct DatasetIoStats {
  std::uint64_t csv_file_parses = 0;   ///< full streaming passes over channel CSVs
  std::uint64_t csv_rows = 0;          ///< long-format rows bucketed into channels
  std::uint64_t binary_file_reads = 0; ///< channels.bin files read
  std::uint64_t binary_samples = 0;    ///< samples adopted from channels.bin
};
[[nodiscard]] DatasetIoStats dataset_io_stats();
void reset_dataset_io_stats();

/// A loaded-but-unmaterialized dataset: the manifest header plus jobs, with
/// every sensor channel still columnar. Consumers that only need a few
/// channels (e.g. replay_power) can take them from the frame without
/// paying for the rest; to_dataset() moves everything into schema slots.
struct DatasetFrame {
  std::string system_name;
  double start_time_s = 0.0;
  double duration_s = 0.0;
  double trace_quantum_s = 15.0;
  std::size_t cdu_count = 0;
  std::vector<JobRecord> jobs;
  TelemetryFrame frame;

  /// Materializes the schema view by moving channels out of the frame;
  /// channels under keys no schema slot consumes are dropped (matching the
  /// reference loader, which only ever looked up known keys). Validates.
  [[nodiscard]] TelemetryDataset to_dataset() &&;
};

/// Reads a TelemetryDataset from some external source (directory, file...).
class TelemetryReader {
 public:
  virtual ~TelemetryReader() = default;
  /// Format name used for registry lookup (e.g. "exadigit-csv").
  [[nodiscard]] virtual std::string format() const = 0;
  /// Loads a dataset; `source` semantics are format-defined.
  [[nodiscard]] virtual TelemetryDataset load(const std::string& source) const = 0;
};

/// Registry of reader factories keyed by format name.
class TelemetryReaderRegistry {
 public:
  /// The process-wide registry, pre-populated with built-in formats.
  static TelemetryReaderRegistry& instance();

  void register_reader(std::shared_ptr<TelemetryReader> reader);
  [[nodiscard]] std::shared_ptr<TelemetryReader> find(const std::string& format) const;
  [[nodiscard]] TelemetryDataset load(const std::string& format,
                                      const std::string& source) const;
  [[nodiscard]] std::vector<std::string> formats() const;

 private:
  std::map<std::string, std::shared_ptr<TelemetryReader>> readers_;
};

/// Saves a dataset in the native exadigit-csv layout under `directory`
/// (created if missing): manifest.json, jobs.json, system.csv, cdu.csv,
/// facility.csv. Series numbers use shortest round-trip formatting.
void save_dataset(const TelemetryDataset& dataset, const std::string& directory);

/// Saves a dataset in the exadigit-bin layout under `directory`:
/// manifest.json, jobs.json, channels.bin (streamed channel at a time).
void save_dataset_binary(const TelemetryDataset& dataset, const std::string& directory);

/// Single-pass columnar load of either native layout, dispatching on the
/// manifest "format". When `expected_format` is non-empty the manifest must
/// name exactly that format (used by the per-format registry readers).
[[nodiscard]] DatasetFrame load_dataset_frame(const std::string& directory,
                                              const std::string& expected_format = "");

/// Loads a dataset saved by save_dataset or save_dataset_binary
/// (load_dataset_frame + to_dataset).
[[nodiscard]] TelemetryDataset load_dataset(const std::string& directory);

/// jobs.json entry (de)serialization, shared with the chunked writer/reader
/// (chunk.cpp) so the job schema cannot drift between the monolithic and
/// chunked layouts. The reader is strict: an unknown key or a node_count
/// outside int is a ConfigError naming it.
[[nodiscard]] Json telemetry_job_to_json(const JobRecord& job);
[[nodiscard]] JobRecord telemetry_job_from_json(const Json& json);

}  // namespace exadigit
