/**
 * @file
 * Platform configuration files.
 *
 * Dimemas drives its reconstruction from a machine configuration
 * file; this module provides the same workflow: a line-oriented
 * `key = value` format covering every PlatformConfig field, so
 * experiments can be versioned and swapped without recompiling.
 *
 *   # my-cluster.cfg
 *   name = my-cluster
 *   bandwidth_mbps = 512
 *   latency_us = 4
 *   buses = 8
 *   cpus_per_node = 4
 *   eager_threshold = 32768
 *
 * Lines are read through util/line_reader.hh: its comment rule,
 * duplicate keys fatal, and every error led by `<file> line <n>: `.
 * Every numeric key is domain-checked on its line (NaN, inf, a
 * number that does not fit the field and an out-of-domain sign are
 * fatal); the cross-field checks after the last line name the file.
 *
 * Dynamic-platform keys:
 *
 *   # a fixed timestamped event list (src/scen/)...
 *   scenario_file = degrade.scen
 *   # ...or a stochastic fault model expanded with its own seed
 *   # and horizon into such a list at parse time (src/res/).
 *   # Mutually exclusive with scenario_file.
 *   fault_model_file = flaky.fm
 *
 * Checkpoint/restart cost model (src/res/, engine restart seam):
 *
 *   # coordinated checkpoint every 50 ms of simulated time...
 *   checkpoint_interval_us = 50000
 *   # ...freezing the machine for 2 ms per checkpoint taken
 *   checkpoint_cost_us = 2000
 *   # rollback/rejuvenation delay charged per fail-stop restart
 *   restart_cost_us = 5000
 *
 * With a positive checkpoint_interval_us a fail-stop scenario event
 * rolls the replay back to its last checkpoint instead of
 * terminating it; zero (the default) keeps PR-6 fail-stop
 * semantics bit-identical.
 */

#ifndef OVLSIM_SIM_PLATFORM_FILE_HH
#define OVLSIM_SIM_PLATFORM_FILE_HH

#include <iosfwd>
#include <string>

#include "sim/platform.hh"

namespace ovlsim::sim {

/**
 * Parse a platform config from a stream. Unknown and duplicate keys
 * are fatal; `source` names the stream in every error, with the line
 * number for an error on a line.
 */
PlatformConfig readPlatformConfig(
    std::istream &is, const std::string &source = "platform config");

/** Parse a platform config file. */
PlatformConfig readPlatformConfigFile(const std::string &path);

/** Serialize a platform config in the same format. */
void writePlatformConfig(const PlatformConfig &config,
                         std::ostream &os);

/** Serialize a platform config to a file. */
void writePlatformConfigFile(const PlatformConfig &config,
                             const std::string &path);

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_PLATFORM_FILE_HH
