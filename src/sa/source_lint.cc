#include "sa/source_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "sim/logging.h"

namespace memento {
namespace {

// =====================================================================
// Tokenizer
// =====================================================================

/** Token classes the rule passes care about. */
enum class TokKind : std::uint8_t { Ident, Number, Punct, Str, CharLit };

struct Tok
{
    TokKind kind;
    std::string text;
    unsigned line;
    /** Number token spelled as a floating literal (1.5, 2e9, 3.f). */
    bool isFloat = false;
};

struct CommentTok
{
    std::string text;
    unsigned line; ///< Line the comment starts on.
};

/**
 * Comment/string-aware scan of one translation unit. Preprocessor
 * lines are consumed whole; comments are kept on the side for the
 * inline `lint-src: allow(...)` suppressions; everything else becomes
 * a flat token stream with line numbers.
 */
class Lexer
{
  public:
    explicit Lexer(std::string_view src) : src_(src) { run(); }

    std::vector<Tok> toks;
    std::vector<CommentTok> comments;

  private:
    bool
    startsWith(std::string_view prefix) const
    {
        return src_.substr(pos_, prefix.size()) == prefix;
    }

    char at(std::size_t i) const { return i < src_.size() ? src_[i] : '\0'; }
    char cur() const { return at(pos_); }
    char peek() const { return at(pos_ + 1); }

    void
    advance()
    {
        if (cur() == '\n')
            ++line_;
        ++pos_;
    }

    void
    lexLineComment()
    {
        const unsigned start = line_;
        std::size_t begin = pos_;
        while (pos_ < src_.size() && cur() != '\n')
            advance();
        comments.push_back(
            {std::string(src_.substr(begin, pos_ - begin)), start});
    }

    void
    lexBlockComment()
    {
        const unsigned start = line_;
        std::size_t begin = pos_;
        advance(); // '/'
        advance(); // '*'
        while (pos_ < src_.size() && !(cur() == '*' && peek() == '/'))
            advance();
        if (pos_ < src_.size()) {
            advance();
            advance();
        }
        comments.push_back(
            {std::string(src_.substr(begin, pos_ - begin)), start});
    }

    void
    lexString()
    {
        const unsigned start = line_;
        advance(); // opening quote
        while (pos_ < src_.size() && cur() != '"') {
            if (cur() == '\\')
                advance();
            if (cur() == '\n')
                break; // Unterminated: resynchronize at the newline.
            advance();
        }
        if (cur() == '"')
            advance();
        toks.push_back({TokKind::Str, "", start, false});
    }

    void
    lexRawString()
    {
        // R"delim( ... )delim"
        const unsigned start = line_;
        advance(); // R already consumed by caller; this is '"'
        std::string delim;
        while (pos_ < src_.size() && cur() != '(' && cur() != '\n' &&
               delim.size() < 16) {
            delim += cur();
            advance();
        }
        const std::string close = ")" + delim + "\"";
        while (pos_ < src_.size() && !startsWith(close))
            advance();
        for (std::size_t i = 0; i < close.size() && pos_ < src_.size(); ++i)
            advance();
        toks.push_back({TokKind::Str, "", start, false});
    }

    void
    lexCharLit()
    {
        const unsigned start = line_;
        advance(); // opening quote
        while (pos_ < src_.size() && cur() != '\'') {
            if (cur() == '\\')
                advance();
            if (cur() == '\n')
                break;
            advance();
        }
        if (cur() == '\'')
            advance();
        toks.push_back({TokKind::CharLit, "", start, false});
    }

    void
    lexIdent()
    {
        const unsigned start = line_;
        std::size_t begin = pos_;
        while (pos_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(cur())) ||
                cur() == '_'))
            advance();
        std::string text(src_.substr(begin, pos_ - begin));
        // Raw-string literal: the R prefix glues to the quote.
        if ((text == "R" || text == "LR" || text == "u8R") && cur() == '"') {
            lexRawString();
            return;
        }
        toks.push_back({TokKind::Ident, std::move(text), start, false});
    }

    void
    lexNumber()
    {
        const unsigned start = line_;
        std::size_t begin = pos_;
        const bool hex = cur() == '0' && (peek() == 'x' || peek() == 'X');
        bool is_float = false;
        while (pos_ < src_.size()) {
            const char c = cur();
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '\'' ||
                c == '.') {
                if (!hex && (c == '.' || c == 'e' || c == 'E' || c == 'f' ||
                             c == 'F'))
                    is_float = true;
                advance();
                // Exponent sign: 1e+9 / 1e-9.
                if (!hex && (c == 'e' || c == 'E') &&
                    (cur() == '+' || cur() == '-'))
                    advance();
                continue;
            }
            break;
        }
        toks.push_back({TokKind::Number,
                        std::string(src_.substr(begin, pos_ - begin)),
                        start, is_float});
    }

    /** A preprocessor directive, consumed to its (continuation-aware)
     * end of line. */
    void
    lexPreproc()
    {
        while (pos_ < src_.size()) {
            if (cur() == '\\' && peek() == '\n') {
                advance();
                advance();
                continue;
            }
            if (cur() == '\n')
                break;
            advance();
        }
    }

    void
    run()
    {
        while (pos_ < src_.size()) {
            const char c = cur();
            if (c == '/' && peek() == '/') {
                lexLineComment();
            } else if (c == '/' && peek() == '*') {
                lexBlockComment();
            } else if (c == '"') {
                lexString();
            } else if (c == '\'') {
                lexCharLit();
            } else if (c == '#') {
                lexPreproc();
            } else if (std::isalpha(static_cast<unsigned char>(c)) ||
                       c == '_') {
                lexIdent();
            } else if (std::isdigit(static_cast<unsigned char>(c))) {
                lexNumber();
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                advance();
            } else {
                // Multi-char operators the rules must not split: `::`
                // (qualifier vs range-for colon) and `->` (member call).
                const unsigned start = line_;
                if (c == ':' && peek() == ':') {
                    advance();
                    advance();
                    toks.push_back({TokKind::Punct, "::", start, false});
                } else if (c == '-' && peek() == '>') {
                    advance();
                    advance();
                    toks.push_back({TokKind::Punct, "->", start, false});
                } else {
                    advance();
                    toks.push_back(
                        {TokKind::Punct, std::string(1, c), start, false});
                }
            }
        }
    }

    std::string_view src_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
};

// =====================================================================
// Path scoping
// =====================================================================

/** True when @p path contains @p dir as a complete path segment. */
bool
hasSegment(std::string_view path, std::string_view dir)
{
    std::size_t from = 0;
    while (from <= path.size()) {
        std::size_t slash = path.find('/', from);
        if (slash == std::string_view::npos)
            slash = path.size();
        if (path.substr(from, slash - from) == dir)
            return true;
        from = slash + 1;
    }
    return false;
}

bool
hasAnySegment(std::string_view path,
              std::initializer_list<std::string_view> dirs)
{
    for (std::string_view d : dirs) {
        if (hasSegment(path, d))
            return true;
    }
    return false;
}

/** Which path-scoped rules apply to this file. */
struct RuleScope
{
    bool streams = true;  ///< src-naked-cout
    bool random = true;   ///< src-unseeded-random
    bool wallclock = true;///< src-wallclock-in-sim
    bool fatality = true; ///< src-fatal-in-library
};

RuleScope
scopeFor(const std::string &subject)
{
    RuleScope s;
    // The serialized logging layer and the single-threaded CLI /
    // example front ends own the process streams.
    if (subject.find("sim/logging") != std::string::npos ||
        hasAnySegment(subject, {"tools", "examples"}))
        s.streams = false;
    // The seeded deterministic randomness layer.
    if (subject.find("sim/rng") != std::string::npos ||
        subject.find("fleet/arrivals") != std::string::npos ||
        hasAnySegment(subject, {"wl", "examples"}))
        s.random = false;
    // The CLI and example front ends may stamp host time; simulator
    // self-timing lives in perfbench/ and uses steady_clock only.
    if (hasAnySegment(subject, {"tools", "examples"}))
        s.wallclock = false;
    // Model-layer code must raise SimError; the user-facing layers
    // (CLI parsing, workload lookup, schema errors) legitimately
    // terminate through fatal(). Unknown paths (e.g. the lint corpus)
    // count as library code.
    if (hasAnySegment(subject, {"sim", "cli", "wl", "an", "sa", "fleet",
                                "val", "tools", "examples"}) &&
        !hasAnySegment(subject, {"hw", "mem", "os", "rt", "machine"}))
        s.fatality = false;
    return s;
}

// =====================================================================
// Per-file analysis
// =====================================================================

/** Name-indexed inline suppressions: line -> allowed rule ids. */
using AllowMap = std::map<unsigned, std::set<std::string>>;

AllowMap
parseInlineAllows(const std::vector<CommentTok> &comments)
{
    AllowMap allows;
    for (const CommentTok &c : comments) {
        std::size_t at = c.text.find("lint-src:");
        while (at != std::string::npos) {
            const std::size_t open = c.text.find("allow(", at);
            if (open == std::string::npos)
                break;
            const std::size_t close = c.text.find(')', open);
            if (close == std::string::npos)
                break;
            allows[c.line].insert(
                c.text.substr(open + 6, close - open - 6));
            at = c.text.find("lint-src:", close);
        }
    }
    return allows;
}

/** The per-file rule driver. */
class FileLinter
{
  public:
    FileLinter(const Lexer &lex, const std::string &subject,
               DiagReport &report)
        : toks_(lex.toks), subject_(subject), report_(report),
          allows_(parseInlineAllows(lex.comments)),
          scope_(scopeFor(subject))
    {
        scanLocalDecls();
        checkUnorderedContainers();
        checkPointerKeys();
        checkIdentifierRules();
        checkDigestFloats();
    }

  private:
    // ---- Reporting ----

    void
    finding(const char *rule, unsigned line, std::string msg)
    {
        const auto it = allows_.find(line);
        if (it != allows_.end() && it->second.count(rule) != 0)
            return;
        report_.add(rule, subject_, line, std::move(msg));
    }

    // ---- Token helpers ----

    bool
    isPunct(std::size_t i, std::string_view p) const
    {
        return i < toks_.size() && toks_[i].kind == TokKind::Punct &&
               toks_[i].text == p;
    }

    bool
    isIdent(std::size_t i, std::string_view id) const
    {
        return i < toks_.size() && toks_[i].kind == TokKind::Ident &&
               toks_[i].text == id;
    }

    bool
    isMemberAccess(std::size_t i) const
    {
        return i < toks_.size() && i > 0 &&
               (isPunct(i - 1, ".") || isPunct(i - 1, "->"));
    }

    /**
     * True when the identifier at @p i reads as a free-function call:
     * followed by `(` and not a member access or a declaration. A
     * preceding identifier (`std::uint64_t rand()`) marks a declarator,
     * except `return`, which introduces a call expression.
     */
    bool
    isFreeCall(std::size_t i) const
    {
        if (!isPunct(i + 1, "(") || isMemberAccess(i))
            return false;
        if (i > 0 && toks_[i - 1].kind == TokKind::Ident &&
            toks_[i - 1].text != "return")
            return false;
        return true;
    }

    /** Index one past the `)` matching the `(` at @p i. */
    std::size_t
    skipParens(std::size_t i) const
    {
        int depth = 0;
        for (; i < toks_.size(); ++i) {
            if (isPunct(i, "("))
                ++depth;
            else if (isPunct(i, ")") && --depth == 0)
                return i + 1;
        }
        return i;
    }

    // ---- Local declaration index ----

    void
    scanLocalDecls()
    {
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Ident)
                continue;
            // `double x` / `float x` declarations (locals, params,
            // members): the digest rule resolves identifiers fed to a
            // DigestBuilder against these.
            if ((toks_[i].text == "double" || toks_[i].text == "float") &&
                toks_[i + 1].kind == TokKind::Ident &&
                (isPunct(i + 2, ";") || isPunct(i + 2, "=") ||
                 isPunct(i + 2, ",") || isPunct(i + 2, ")") ||
                 isPunct(i + 2, "{")))
                floatVars_.insert(toks_[i + 1].text);
            if (toks_[i].text == "DigestBuilder" &&
                toks_[i + 1].kind == TokKind::Ident)
                digestVars_.insert(toks_[i + 1].text);
        }
    }

    // ---- src-unordered-iteration ----

    void
    checkUnorderedContainers()
    {
        for (const Tok &t : toks_) {
            if (t.kind != TokKind::Ident ||
                (t.text != "unordered_map" && t.text != "unordered_set" &&
                 t.text != "unordered_multimap" &&
                 t.text != "unordered_multiset"))
                continue;
            finding("src-unordered-iteration", t.line,
                    detail::formatMsg(
                        "std::", t.text,
                        " iterates in the standard library's hash order, "
                        "which is implementation-defined and leaks into "
                        "anything a walk feeds (stdout, digests, "
                        "simulated access order); use AddrMap "
                        "(sim/addr_map.h) or an ordered container"));
        }
    }

    // ---- src-pointer-key-order ----

    void
    checkPointerKeys()
    {
        for (std::size_t i = 2; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Ident ||
                (toks_[i].text != "map" && toks_[i].text != "set"))
                continue;
            if (!isIdent(i - 2, "std") || !isPunct(i - 1, "::") ||
                !isPunct(i + 1, "<"))
                continue;
            // First template argument: tokens until the key/value comma
            // (or the closing `>`) at nesting depth 1.
            int depth = 0;
            bool pointer_key = false;
            for (std::size_t j = i + 1; j < toks_.size(); ++j) {
                if (isPunct(j, "<")) {
                    ++depth;
                } else if (isPunct(j, ">")) {
                    if (--depth == 0)
                        break;
                } else if (depth == 1 && isPunct(j, ",")) {
                    break;
                } else if (depth == 1 && isPunct(j, "*")) {
                    pointer_key = true;
                } else if (isPunct(j, ";")) {
                    break;
                }
            }
            if (pointer_key) {
                finding("src-pointer-key-order", toks_[i].line,
                        detail::formatMsg(
                            "std::", toks_[i].text,
                            " keyed by a raw pointer iterates in "
                            "allocator address order, which differs "
                            "run to run; key by a stable id (object "
                            "id, name, index) instead"));
            }
        }
    }

    // ---- Identifier-triggered rules ----

    void
    checkIdentifierRules()
    {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Ident)
                continue;
            const std::string &t = toks_[i].text;
            const bool call = isFreeCall(i);

            if (scope_.random) {
                if ((t == "rand" || t == "srand") && call) {
                    finding("src-unseeded-random", toks_[i].line,
                            detail::formatMsg(
                                t, "() draws from hidden global state; "
                                "use the seeded sim/rng.h Rng so every "
                                "run replays from its spec seed"));
                } else if (t == "random_device" ||
                           t == "random_shuffle") {
                    finding("src-unseeded-random", toks_[i].line,
                            detail::formatMsg(
                                "std::", t,
                                " is nondeterministic across runs; "
                                "derive all randomness from the seeded "
                                "sim/rng.h layer"));
                }
            }

            if (scope_.wallclock) {
                if (t == "system_clock" || t == "high_resolution_clock" ||
                    t == "gettimeofday" || t == "localtime" ||
                    t == "gmtime" || t == "strftime" || t == "mktime" ||
                    (t == "time" && call)) {
                    finding("src-wallclock-in-sim", toks_[i].line,
                            detail::formatMsg(
                                "'", t,
                                "' reads host wall-clock time inside "
                                "simulation/digest code; simulated "
                                "results must derive from the cycle "
                                "ledger only (self-timing belongs in "
                                "perfbench/ via steady_clock)"));
                }
            }

            if (scope_.streams) {
                if (t == "cout" || t == "cerr" || t == "clog") {
                    finding("src-naked-cout", toks_[i].line,
                            detail::formatMsg(
                                "direct std::", t,
                                " write outside the serialized logging "
                                "layer; parallel workers interleave "
                                "lines and change sweep output — take "
                                "a std::ostream& or report through "
                                "sim/logging.h"));
                } else if ((t == "printf" || t == "fprintf" ||
                            t == "puts" || t == "putchar") &&
                           call) {
                    finding("src-naked-cout", toks_[i].line,
                            detail::formatMsg(
                                t, "() writes to a process stream "
                                "outside the serialized logging layer; "
                                "take a std::ostream& or report "
                                "through sim/logging.h"));
                }
            }

            if (scope_.fatality) {
                if ((t == "fatal" || t == "fatal_if") && call) {
                    finding("src-fatal-in-library", toks_[i].line,
                            detail::formatMsg(
                                t, "() terminates the whole process "
                                "from model-layer code; raise "
                                "SimError (sim/error.h) so --keep-"
                                "going sweeps can isolate the failing "
                                "cell"));
                } else if ((t == "abort" || t == "exit" || t == "_exit" ||
                            t == "_Exit" || t == "quick_exit") &&
                           call) {
                    finding("src-fatal-in-library", toks_[i].line,
                            detail::formatMsg(
                                t, "() terminates the whole process "
                                "from model-layer code; raise "
                                "SimError, or panic() for genuine "
                                "invariant violations"));
                }
            }
        }
    }

    // ---- src-float-accumulation-in-digest ----

    void
    checkDigestFloats()
    {
        if (digestVars_.empty())
            return;
        for (std::size_t i = 0; i + 3 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Ident ||
                digestVars_.count(toks_[i].text) == 0)
                continue;
            if (!isPunct(i + 1, ".") && !isPunct(i + 1, "->"))
                continue;
            if (!isIdent(i + 2, "add") && !isIdent(i + 2, "addByte"))
                continue;
            if (!isPunct(i + 3, "("))
                continue;
            const std::size_t end = skipParens(i + 3);
            for (std::size_t j = i + 4; j < end; ++j) {
                const bool float_tok =
                    (toks_[j].kind == TokKind::Number && toks_[j].isFloat) ||
                    isIdent(j, "double") || isIdent(j, "float") ||
                    (toks_[j].kind == TokKind::Ident &&
                     floatVars_.count(toks_[j].text) != 0);
                if (float_tok) {
                    finding("src-float-accumulation-in-digest",
                            toks_[j].line,
                            "floating-point value fed to the FNV-1a "
                            "digest: FP results depend on rounding and "
                            "summation order across platforms — digest "
                            "the integer state it was derived from "
                            "instead");
                    break;
                }
            }
        }
    }

    const std::vector<Tok> &toks_;
    const std::string &subject_;
    DiagReport &report_;
    AllowMap allows_;
    RuleScope scope_;
    std::set<std::string> floatVars_;
    std::set<std::string> digestVars_;
};

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "lint-src: cannot open ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * The .h/.cc files under each of @p paths (a file argument is taken
 * verbatim), in sorted path order. A file reached through two
 * spellings (relative and absolute, say) is listed once, under the
 * lexically normal form of its first spelling.
 */
std::vector<std::string>
collectSourceFiles(const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::set<std::string> seen;
    auto add = [&](const fs::path &file) {
        std::error_code ec;
        const fs::path key = fs::weakly_canonical(file, ec);
        if (seen.insert((ec ? file : key).generic_string()).second)
            files.push_back(file.lexically_normal().generic_string());
    };
    for (const std::string &arg : paths) {
        std::error_code ec;
        const fs::path root(arg);
        if (fs::is_regular_file(root, ec)) {
            add(root);
            continue;
        }
        fatal_if(!fs::is_directory(root, ec),
                 "lint-src: no such file or directory: ", arg);
        for (fs::recursive_directory_iterator it(root, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".h" && ext != ".cc")
                continue;
            add(it->path());
        }
        fatal_if(static_cast<bool>(ec), "lint-src: cannot walk ", arg,
                 ": ", ec.message());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

// =====================================================================
// Public API
// =====================================================================

void
lintSourceText(std::string_view text, const std::string &subject,
               DiagReport &report)
{
    const Lexer lex(text);
    FileLinter(lex, subject, report);
}

std::size_t
lintSourcePaths(const std::vector<std::string> &paths, DiagReport &report)
{
    const std::vector<std::string> files = collectSourceFiles(paths);
    for (const std::string &path : files)
        lintSourceText(readFileOrFatal(path), path, report);
    return files.size();
}

} // namespace memento
