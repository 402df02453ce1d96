/**
 * @file
 * Workload configuration files.
 *
 * Synthetic workloads version and swap like platforms do: a
 * line-oriented `key = value` format covering every WorkloadConfig
 * field, read through util/line_reader.hh like platform files: its
 * comment rule, `<file> line <n>: ` in every error on a line,
 * duplicate keys fatal, and NaN, inf, a number that does not fit
 * the field or an out-of-domain sign rejected on its line. The
 * cross-field checks after the last line name the file.
 *
 *   # stencil-2d.wl
 *   kind = stencil
 *   name = halo-2d
 *   ranks = 64
 *   iterations = 8
 *   stencil_dims = 2
 *   halo_bytes = 32768
 *   compute_per_iteration = 1000000
 *
 * Every field of every family is always written and accepted on
 * read regardless of `kind`, so read(write(c)) == c for any valid
 * config (the round-trip invariant the fuzz test pins).
 */

#ifndef OVLSIM_GEN_WORKLOAD_FILE_HH
#define OVLSIM_GEN_WORKLOAD_FILE_HH

#include <iosfwd>
#include <string>

#include "gen/gen.hh"

namespace ovlsim::gen {

/**
 * Parse a workload config from a stream. Unknown and duplicate keys
 * are fatal; `source` names the stream in every error. The parsed
 * config is validated (WorkloadConfig::validate) before it is
 * returned.
 */
WorkloadConfig readWorkloadConfig(
    std::istream &is, const std::string &source = "workload config");

/** Parse a workload config file. */
WorkloadConfig readWorkloadConfigFile(const std::string &path);

/** Serialize a workload config in the same format. */
void writeWorkloadConfig(const WorkloadConfig &config,
                         std::ostream &os);

} // namespace ovlsim::gen

#endif // OVLSIM_GEN_WORKLOAD_FILE_HH
