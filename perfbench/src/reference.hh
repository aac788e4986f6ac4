/**
 * @file
 * Committed reference digests (reference.json beside this package).
 *
 * Host time is what the benchmark measures; simulated results must
 * not move. Every checked output is reduced to a 16-hex FNV-1a digest
 * and compared with the digest committed for the same key, so a
 * change that alters a simulated statistic fails the run. In emit
 * mode the digests are collected instead, to regenerate the file.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <map>
#include <string>

namespace perfbench {

/** FNV-1a 64 of @p bytes as 16 lowercase hex digits. */
std::string digestOf(const std::string &bytes);

class Reference
{
  public:
    /** An empty reference in emit (collecting) mode. */
    static Reference collecting();

    /** Load @p path; throws std::runtime_error when unusable. */
    static Reference load(const std::string &path);

    /**
     * Does @p bytes match the digest committed under @p key? A key
     * with no committed digest never matches. In emit mode the digest
     * is recorded and the answer is always yes.
     */
    bool check(const std::string &key, const std::string &bytes);

    /** Digests recorded in emit mode, by key. */
    const std::map<std::string, std::string> &emitted() const
    {
        return emitted_;
    }

    /** Render a digest map in the reference.json format. */
    static std::string
    render(const std::map<std::string, std::string> &digests);

  private:
    bool emit_ = false;
    std::map<std::string, std::string> digests_;
    std::map<std::string, std::string> emitted_;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
