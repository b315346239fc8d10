// Batch phase-profile ingestion: many trace files -> merged phase profiles.
//
// The paper's calibration campaign leaves one OTF2 trace per (workload,
// frequency, thread-count, counter-group) run; post-processing reduces the
// whole directory to one phase-profile table. profile_trace_files does that
// reduction in a single call: every file is read and profiled independently
// by profile_trace_file (OpenMP-parallel across files), then profiles with
// the same (workload, phase, frequency, threads) key are merged across runs
// with elapsed-time weights — exactly what a serial read/profile/merge loop
// over the same files produces, bit for bit, regardless of thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/phase_profile.hpp"

namespace pwx::trace {

/// How one trace file is read. These two knobs are the whole ingest surface;
/// the batch and the incremental campaign (trace/incremental.hpp) share them.
struct ProfileCampaignOptions {
  bool mmap = false;  ///< zero-copy mapped ingestion (trace/mapped.hpp);
                      ///< v2/v3 files fall back to the buffered reader
  bool verify_checksum = true;  ///< verify checksum footers; only the mapped
                                ///< path can skip them (buffered always does)
};

/// One file's phase profiles plus how its bytes arrived: exactly one of
/// bytes_mapped / bytes_copied is the file size, the other is zero.
struct TraceFileProfiles {
  std::vector<PhaseProfile> profiles;
  std::size_t bytes_mapped = 0;
  std::size_t bytes_copied = 0;
};

/// Read and profile one trace file, mapped or buffered per `options`. This is
/// the single per-file ingest step of both campaign engines. Throws
/// pwx::IoError on malformed, truncated, or corrupted input.
TraceFileProfiles profile_trace_file(const std::string& path,
                                     const ProfileCampaignOptions& options = {});

/// Read + profile every file, then merge across runs. The result is
/// deterministic: per-file profiles are combined in input order (first
/// appearance of a key fixes its output position), independent of how the
/// per-file stage was scheduled. Errors rethrow with the offending path
/// prepended; when several files fail, the lowest-index failure wins.
std::vector<PhaseProfile> profile_trace_files(const std::vector<std::string>& paths,
                                              ProfileCampaignOptions options = {});

/// The campaign's stage-2 reduction as a standalone step: merge same-key
/// profiles across the per-file groups, keys ordered by first appearance
/// walking the groups in input order. profile_trace_files and the
/// incremental engine (trace/incremental.hpp) both reduce through this one
/// function, which is what makes a streamed campaign bit-identical to the
/// cold batch over the same files.
std::vector<PhaseProfile> merge_first_appearance(
    std::vector<std::vector<PhaseProfile>> per_file);

}  // namespace pwx::trace
