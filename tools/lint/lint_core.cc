#include "lint/lint_core.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>

namespace lva::lint {

std::string
stripComments(const std::string &src, bool keepStrings)
{
    std::string out = src;
    enum class State { Code, LineComment, BlockComment, Str, Char, RawStr };
    State state = State::Code;
    std::string rawDelim; // ")delim" terminator of the active raw string
    const std::size_t n = src.size();

    auto blank = [&](std::size_t i) {
        if (out[i] != '\n')
            out[i] = ' ';
    };
    // Literal bytes are preserved in keepStrings mode (registry
    // extraction) and blanked in hazard-scan mode.
    auto blankLit = [&](std::size_t i) {
        if (!keepStrings)
            blank(i);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const char c = src[i];
        const char next = i + 1 < n ? src[i + 1] : '\0';
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                blank(i);
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                blank(i);
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || (!std::isalnum(
                                       static_cast<unsigned char>(src[i - 1])) &&
                                   src[i - 1] != '_'))) {
                // R"delim( ... )delim"
                std::size_t open = src.find('(', i + 2);
                if (open != std::string::npos) {
                    rawDelim = ")" + src.substr(i + 2, open - i - 2) + "\"";
                    state = State::RawStr;
                    blankLit(i);
                }
            } else if (c == '"') {
                state = State::Str;
                blankLit(i);
            } else if (c == '\'' &&
                       (i == 0 || (!std::isalnum(
                                       static_cast<unsigned char>(src[i - 1])) &&
                                   src[i - 1] != '_' && src[i - 1] != '\''))) {
                // Char literal; the guard keeps digit separators (1'000)
                // and nested quotes out of the literal state machine.
                state = State::Char;
                blankLit(i);
            }
            break;
        case State::LineComment:
            blank(i);
            if (c == '\n')
                state = State::Code;
            break;
        case State::BlockComment:
            blank(i);
            if (c == '*' && next == '/') {
                blank(i + 1);
                ++i;
                state = State::Code;
            }
            break;
        case State::Str:
            blankLit(i);
            if (c == '\\' && next != '\0') {
                blankLit(i + 1);
                ++i;
            } else if (c == '"') {
                state = State::Code;
            }
            break;
        case State::Char:
            blankLit(i);
            if (c == '\\' && next != '\0') {
                blankLit(i + 1);
                ++i;
            } else if (c == '\'') {
                state = State::Code;
            }
            break;
        case State::RawStr:
            blankLit(i);
            if (c == rawDelim[0] && src.compare(i, rawDelim.size(),
                                                rawDelim) == 0) {
                for (std::size_t j = 0; j < rawDelim.size(); ++j)
                    blankLit(i + j);
                i += rawDelim.size() - 1;
                state = State::Code;
            }
            break;
        }
    }
    return out;
}

std::vector<int>
buildLineTable(const std::string &src)
{
    std::vector<int> lineOf(src.size() + 1);
    int line = 1;
    for (std::size_t i = 0; i < src.size(); ++i) {
        lineOf[i] = line;
        if (src[i] == '\n')
            ++line;
    }
    lineOf[src.size()] = line;
    return lineOf;
}

bool
Suppressions::allows(int line, const std::string &rule) const
{
    // The inline form covers its own line and the one below it (the
    // "annotation above the offender" idiom); fences cover exactly
    // the lines between begin and end.
    for (int l : {line, line - 1}) {
        auto it = inlineAllow.find(l);
        if (it != inlineAllow.end() &&
            (it->second.count(rule) || it->second.count("all")))
            return true;
    }
    auto it = fenceAllow.find(line);
    return it != fenceAllow.end() &&
           (it->second.count(rule) || it->second.count("all"));
}

Suppressions
parseSuppressions(const std::string &relPath, const std::string &src,
                  const std::string &tag)
{
    Suppressions out;
    // The allow comments live inside comments, which the stripped
    // text has blanked — so this parses the *raw* source, line by
    // line.
    const std::regex inlineRe(
        tag + R"(:\s*allow\(([A-Za-z0-9_,\- ]+)\))");
    const std::regex beginRe(
        tag + R"(:\s*begin-allow\(([A-Za-z0-9_,\- ]+)\))");
    const std::regex endRe(tag + R"(:\s*end-allow\b)");

    auto parseList = [](const std::string &list) {
        std::set<std::string> rules;
        std::string item;
        for (std::size_t i = 0; i <= list.size(); ++i) {
            if (i == list.size() || list[i] == ',') {
                const auto b = item.find_first_not_of(" \t");
                const auto e = item.find_last_not_of(" \t");
                if (b != std::string::npos)
                    rules.insert(item.substr(b, e - b + 1));
                item.clear();
            } else {
                item += list[i];
            }
        }
        return rules;
    };

    // Open fences: (begin line, rule set).
    std::vector<std::pair<int, std::set<std::string>>> open;
    int line = 1;
    std::size_t pos = 0;
    while (pos < src.size()) {
        std::size_t eol = src.find('\n', pos);
        if (eol == std::string::npos)
            eol = src.size();
        const std::string text = src.substr(pos, eol - pos);
        std::smatch m;
        if (std::regex_search(text, m, beginRe)) {
            open.emplace_back(line, parseList(m[1].str()));
        } else if (std::regex_search(text, m, endRe)) {
            if (open.empty()) {
                out.fenceFindings.push_back(
                    {relPath, line, kBadAllowFence,
                     "end-allow without a matching begin-allow"});
            } else {
                for (int l = open.back().first; l <= line; ++l)
                    out.fenceAllow[l].insert(
                        open.back().second.begin(),
                        open.back().second.end());
                open.pop_back();
            }
        } else if (std::regex_search(text, m, inlineRe)) {
            const auto rules = parseList(m[1].str());
            out.inlineAllow[line].insert(rules.begin(), rules.end());
        }
        pos = eol + 1;
        ++line;
    }
    for (const auto &[beginLine, rules] : open) {
        (void)rules;
        out.fenceFindings.push_back(
            {relPath, beginLine, kBadAllowFence,
             "begin-allow fence still open at end of file (add "
             "end-allow)"});
    }
    return out;
}

namespace {

bool
pathHasPrefix(const std::string &path, const std::vector<std::string> &prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string &p) {
                           return path.compare(0, p.size(), p) == 0;
                       });
}

/** Context shared by the individual rule passes. */
struct FileCtx
{
    const std::string &relPath;
    const std::string &stripped;
    const std::vector<int> &lineOf;
    const Suppressions &allow;
    std::vector<Finding> &findings;

    bool
    suppressed(int line, const std::string &rule) const
    {
        return allow.allows(line, rule);
    }

    void
    emit(std::size_t offset, const char *rule, std::string message)
    {
        const int line = lineOf[std::min(offset, stripped.size())];
        if (!suppressed(line, rule))
            findings.push_back({relPath, line, rule, std::move(message)});
    }
};

/** Run @p re over the stripped text, emitting one finding per match. */
void
regexRule(FileCtx &ctx, const std::regex &re, const char *rule,
          const std::string &messagePrefix)
{
    for (auto it = std::sregex_iterator(ctx.stripped.begin(),
                                        ctx.stripped.end(), re);
         it != std::sregex_iterator(); ++it) {
        ctx.emit(static_cast<std::size_t>(it->position()), rule,
                 messagePrefix + " '" + it->str() + "'");
    }
}

// ---------------------------------------------------------------------
// no-rand / no-wall-clock / no-pointer-keyed-ordered: plain patterns.
// ---------------------------------------------------------------------

void
checkRand(FileCtx &ctx)
{
    static const std::regex re(
        R"(\b(?:std::)?(?:rand|srand)\s*\(|\brandom_device\b)");
    regexRule(ctx, re, kNoRand,
              "nondeterministic RNG API (seed a util/random.hh Rng "
              "instead):");
}

void
checkWallClock(FileCtx &ctx)
{
    // steady_clock is intentionally NOT flagged: util/bench_timer.hh
    // uses it for wall-clock *reporting*, which never feeds results.
    static const std::regex re(
        R"(\b(?:std::)?time\s*\(|\bsystem_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b)");
    regexRule(ctx, re, kNoWallClock,
              "wall-clock read breaks run-to-run reproducibility (use "
              "simulated ticks, or util/bench_timer for reporting):");
}

void
checkPointerKeyedOrdered(FileCtx &ctx)
{
    // std::map<T*, ...> / std::set<T*>: ordered by pointer value, so
    // iteration order depends on allocation addresses (ASLR, allocator
    // state) and is not reproducible across runs.
    static const std::regex re(
        R"(\b(?:std::)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*[,>])");
    regexRule(ctx, re, kNoPointerKeyedOrdered,
              "pointer-keyed ordered container iterates in allocation-"
              "address order (key by a stable id instead):");
}

// ---------------------------------------------------------------------
// no-unordered-iteration: two passes — find names declared with an
// unordered container type, then flag range-for / begin()-family uses.
// ---------------------------------------------------------------------

std::vector<std::string>
unorderedDeclNames(const std::string &stripped)
{
    std::vector<std::string> names;
    static const std::regex decl(R"(\bunordered_(?:multi)?(?:map|set)\s*<)");
    for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                        decl);
         it != std::sregex_iterator(); ++it) {
        // Balance the template angle brackets, then read the declared
        // identifier (if any) that follows.
        std::size_t i =
            static_cast<std::size_t>(it->position() + it->length());
        int depth = 1;
        while (i < stripped.size() && depth > 0) {
            if (stripped[i] == '<')
                ++depth;
            else if (stripped[i] == '>')
                --depth;
            ++i;
        }
        while (i < stripped.size() &&
               (std::isspace(static_cast<unsigned char>(stripped[i])) ||
                stripped[i] == '&' || stripped[i] == '*'))
            ++i;
        std::string name;
        while (i < stripped.size() &&
               (std::isalnum(static_cast<unsigned char>(stripped[i])) ||
                stripped[i] == '_'))
            name += stripped[i++];
        if (!name.empty())
            names.push_back(name);
    }
    return names;
}

void
checkUnorderedIteration(FileCtx &ctx, const Options &opts)
{
    if (!pathHasPrefix(ctx.relPath, opts.exportPaths))
        return;
    for (const std::string &name : unorderedDeclNames(ctx.stripped)) {
        // Range-for where the range expression ends in the container
        // (optionally behind member access), and explicit iterator
        // walks via the begin() family.  end() alone is NOT flagged:
        // the find()/end() point-lookup idiom never iterates.
        const std::regex uses(
            "for\\s*\\([^()]*:\\s*(?:[A-Za-z_]\\w*\\s*(?:\\.|->|::)\\s*)*" +
                name + "\\s*\\)|\\b" + name +
                "\\s*(?:\\.|->)\\s*c?r?begin\\s*\\(",
            std::regex::ECMAScript);
        for (auto it = std::sregex_iterator(ctx.stripped.begin(),
                                            ctx.stripped.end(), uses);
             it != std::sregex_iterator(); ++it) {
            ctx.emit(static_cast<std::size_t>(it->position()),
                     kNoUnorderedIteration,
                     "iteration over unordered container '" + name +
                         "' can leak hash-order into exported results "
                         "(sort keys first, or use a std::map/vector):");
        }
    }
}

// ---------------------------------------------------------------------
// no-mutable-global: `static` data declarations (namespace scope,
// function-local, or class member) that are not const/constexpr.
// ---------------------------------------------------------------------

void
checkMutableGlobal(FileCtx &ctx, const Options &opts)
{
    if (pathHasPrefix(ctx.relPath, opts.mutableStateAllowedPaths))
        return;
    static const std::regex kw(R"(\bstatic\b)");
    const std::string &s = ctx.stripped;
    for (auto it = std::sregex_iterator(s.begin(), s.end(), kw);
         it != std::sregex_iterator(); ++it) {
        const auto start = static_cast<std::size_t>(it->position());
        // Scan forward: '(' first means a function declaration (the
        // parameter list); ';', '=' or '{' first means a data
        // declaration.  const/constexpr anywhere in between makes the
        // data immutable and therefore fine.
        std::size_t i = start + 6; // past "static"
        bool isConst = false;
        bool isData = false;
        int angleDepth = 0;
        std::string token;
        auto flushToken = [&] {
            if (token == "const" || token == "constexpr" ||
                token == "consteval" || token == "constinit")
                isConst = true;
            token.clear();
        };
        for (; i < s.size(); ++i) {
            const char c = s[i];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
                token += c;
                continue;
            }
            flushToken();
            if (c == '<') {
                ++angleDepth;
            } else if (c == '>') {
                if (angleDepth > 0)
                    --angleDepth;
            } else if (angleDepth == 0) {
                if (c == '(')
                    break; // function
                if (c == ';' || c == '=' || c == '{') {
                    isData = true;
                    break;
                }
            }
        }
        if (isData && !isConst) {
            ctx.emit(start, kNoMutableGlobal,
                     "mutable static/global state is shared across "
                     "sweep points and threads; make it const, pass it "
                     "explicitly, or move it under src/util/ with "
                     "documented synchronisation");
        }
    }
}

// ---------------------------------------------------------------------
// hot-path-alloc: allocation-prone constructs inside lva-hot-path
// fences.  The fence markers live in comments, so they are parsed
// from the raw source; the token scan runs over the stripped text.
// ---------------------------------------------------------------------

} // namespace

std::vector<bool>
hotPathFenceLines(const std::string &source, int lastLine)
{
    std::vector<bool> fenced(static_cast<std::size_t>(lastLine) + 2,
                             false);
    static const std::regex marker(
        R"(^\s*//.*lva-hot-path:\s*(begin|end))");
    int line = 1;
    int openAt = 0; // 0 = not inside a fence
    std::size_t pos = 0;
    while (pos <= source.size()) {
        std::size_t eol = source.find('\n', pos);
        if (eol == std::string::npos)
            eol = source.size();
        const std::string text = source.substr(pos, eol - pos);
        std::smatch m;
        if (std::regex_search(text, m, marker)) {
            if (m[1] == "begin") {
                if (openAt == 0)
                    openAt = line;
            } else if (openAt != 0) {
                for (int l = openAt; l <= line; ++l)
                    fenced[static_cast<std::size_t>(l)] = true;
                openAt = 0;
            }
        }
        if (eol == source.size())
            break;
        pos = eol + 1;
        ++line;
    }
    if (openAt != 0)
        for (int l = openAt; l <= lastLine; ++l)
            fenced[static_cast<std::size_t>(l)] = true;
    return fenced;
}

namespace {

void
checkHotPathAlloc(FileCtx &ctx, const std::string &source)
{
    if (source.find("lva-hot-path:") == std::string::npos)
        return;
    const std::vector<bool> fenced = hotPathFenceLines(
        source, ctx.lineOf.empty() ? 1 : ctx.lineOf.back());

    // Allocation-prone constructs: container growth, the allocating
    // snapshot() copy, node containers, string building, smart-pointer
    // factories and raw new.  The per-load fast paths use fixed rings
    // and in-place indexed reads instead (docs/performance.md).
    static const std::regex re(
        R"(\b(?:push_back|emplace_back|emplace|push_front|snapshot|resize|reserve|to_string)\s*\(|\bstd\s*::\s*(?:deque|list|string|ostringstream|stringstream|function)\b|\bmake_unique\b|\bmake_shared\b|\bnew\s+[A-Za-z_(])");
    for (auto it = std::sregex_iterator(ctx.stripped.begin(),
                                        ctx.stripped.end(), re);
         it != std::sregex_iterator(); ++it) {
        const auto off = static_cast<std::size_t>(it->position());
        const int line = ctx.lineOf[std::min(off, ctx.stripped.size())];
        if (fenced[static_cast<std::size_t>(line)])
            ctx.emit(off, kHotPathAlloc,
                     "allocation-prone construct inside an "
                     "lva-hot-path fence (use fixed rings / in-place "
                     "reads; docs/performance.md):" +
                         (" '" + it->str() + "'"));
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {kNoRand, "everywhere",
         "bans rand()/srand()/std::random_device; all randomness must "
         "flow through the seeded util/random.hh Rng"},
        {kNoWallClock, "everywhere",
         "bans time()/system_clock/high_resolution_clock/gettimeofday/"
         "clock_gettime/localtime/gmtime reads (steady_clock reporting "
         "is fine)"},
        {kNoUnorderedIteration, "src/eval/, src/util/stat*, tools/",
         "bans iterating std::unordered_{map,set} on export-reachable "
         "paths where hash order could leak into CSV/JSON artifacts"},
        {kNoPointerKeyedOrdered, "everywhere",
         "bans std::map/std::set keyed by pointers, whose iteration "
         "order follows allocation addresses"},
        {kNoMutableGlobal, "everywhere except src/util/",
         "bans non-const static/global data; sweep workers share the "
         "process, so hidden mutable state breaks jobs-count "
         "independence"},
        {kHotPathAlloc, "inside lva-hot-path fences",
         "bans allocation-prone constructs (push_back/emplace/"
         "snapshot()/std::deque/std::string/make_unique/new/...) "
         "between lva-hot-path begin/end markers; the per-load paths "
         "must stay allocation-free (docs/performance.md)"},
        {kBadAllowFence, "everywhere",
         "flags unbalanced suppression fences: an end-allow without a "
         "matching begin-allow, or a begin-allow still open at end of "
         "file; fence hygiene errors cannot themselves be suppressed"},
    };
    return catalog;
}

std::vector<Finding>
lintSource(const std::string &relPath, const std::string &source,
           const Options &opts)
{
    const std::string stripped =
        stripComments(source, /*keepStrings=*/false);
    const std::vector<int> lineOf = buildLineTable(stripped);
    const Suppressions allow =
        parseSuppressions(relPath, source, "lva-lint");

    std::vector<Finding> findings;
    FileCtx ctx{relPath, stripped, lineOf, allow, findings};

    checkRand(ctx);
    checkWallClock(ctx);
    checkPointerKeyedOrdered(ctx);
    checkUnorderedIteration(ctx, opts);
    checkMutableGlobal(ctx, opts);
    checkHotPathAlloc(ctx, source);

    findings.insert(findings.end(), allow.fenceFindings.begin(),
                    allow.fenceFindings.end());

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return a.line != b.line ? a.line < b.line
                                          : a.rule < b.rule;
              });
    return findings;
}

} // namespace lva::lint
