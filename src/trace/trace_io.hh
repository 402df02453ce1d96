/**
 * @file
 * Text serialization of trace sets and overlap metadata.
 *
 * The format plays the role of Dimemas' trace files in the paper's
 * environment: the tracer writes them, the replay simulator (and any
 * external tool) reads them back. The format is line-oriented and
 * stable:
 *
 *   #OVLSIM-TRACE 1
 *   name <application name>
 *   mips <double>
 *   ranks <n>
 *   rank <r>
 *   c <instr>
 *   s  <dst> <tag> <bytes> <msgid>
 *   is <dst> <tag> <bytes> <msgid> <req>
 *   r  <src> <tag> <bytes> <msgid>
 *   ir <src> <tag> <bytes> <msgid> <req>
 *   w  <req>
 *   wa
 *   g <op> <sendbytes> <recvbytes> <root>
 *
 * and for overlap metadata:
 *
 *   #OVLSIM-OVERLAP 1
 *   msg  <id> <src> <dst> <tag> <bytes> <sendI> <recvI> <pBegin>
 *        <cEnd> <blockBytes>
 *   prod <id> <n> <p0> ... <pn-1>
 *   cons <id> <n> <c0> ... <cn-1>
 *
 * The readers accept what the writers write: a trace's headers once
 * each before its first `rank` section and one section per declared
 * rank, in order; each message's `msg`, `prod` and `cons` lines in
 * that order. Lines are read through util/line_reader.hh, which
 * fixes the comment rule and the `<source> line <n>: ` error format.
 */

#ifndef OVLSIM_TRACE_TRACE_IO_HH
#define OVLSIM_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/overlap_info.hh"
#include "trace/trace.hh"

namespace ovlsim::trace {

/** Serialize a trace set to a stream. */
void writeTraceText(const TraceSet &traces, std::ostream &os);

/** Serialize a trace set to a file; throws FatalError on IO error. */
void writeTraceFile(const TraceSet &traces, const std::string &path);

/** Parse a trace set from a stream; throws FatalError on bad input.
 * `source` names the stream in every error. */
TraceSet readTraceText(std::istream &is,
                       const std::string &source = "trace");

/** Parse a trace set from a file; throws FatalError on IO error. */
TraceSet readTraceFile(const std::string &path);

/** Serialize overlap metadata to a stream. */
void writeOverlapText(const OverlapSet &overlap, std::ostream &os);

/** Serialize overlap metadata to a file. */
void writeOverlapFile(const OverlapSet &overlap,
                      const std::string &path);

/** Parse overlap metadata from a stream; `source` names the stream
 * in every error. */
OverlapSet readOverlapText(std::istream &is,
                           const std::string &source = "overlap");

/** Parse overlap metadata from a file. */
OverlapSet readOverlapFile(const std::string &path);

} // namespace ovlsim::trace

#endif // OVLSIM_TRACE_TRACE_IO_HH
