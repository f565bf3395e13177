#include "sa/source_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "machine/sweep.h"
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
 * lines are consumed whole (recording `#include "..."` targets);
 * comments are kept on the side for the annotation rules; everything
 * else becomes a flat token stream with line numbers.
 */
class Lexer
{
  public:
    explicit Lexer(std::string_view src) : src_(src) { run(); }

    std::vector<Tok> toks;
    std::vector<CommentTok> comments;
    std::vector<IncludeEdge> includes;

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
     * end of line. Records quoted include targets. */
    void
    lexPreproc()
    {
        const unsigned start = line_;
        std::size_t begin = pos_;
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
        const std::string_view dir = src_.substr(begin, pos_ - begin);
        const std::size_t inc = dir.find("include");
        if (inc != std::string_view::npos) {
            const std::size_t open = dir.find('"', inc);
            if (open != std::string_view::npos) {
                const std::size_t close = dir.find('"', open + 1);
                if (close != std::string_view::npos)
                    includes.push_back(
                        {std::string(
                             dir.substr(open + 1, close - open - 1)),
                         start});
            }
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
    if (hasAnySegment(subject, {"sim", "cli", "wl", "an", "sa", "bench",
                                "fleet", "val", "tools", "examples"}) &&
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

/** What kind of container a name was declared as, across files. */
struct ContainerSeen
{
    bool unordered = false;
    bool ordered = false;
};

bool
isOrderedContainerName(const std::string &t)
{
    return t == "map" || t == "set" || t == "multimap" ||
           t == "multiset" || t == "vector" || t == "deque" ||
           t == "array" || t == "list" || t == "string";
}

bool
isUnorderedContainerName(const std::string &t)
{
    return t == "unordered_map" || t == "unordered_set" ||
           t == "unordered_multimap" || t == "unordered_multiset";
}

/**
 * Skip a balanced template argument list: @p i indexes the `<` token.
 * Returns the index one past the matching `>`. `>>` closers arrive as
 * two `>` tokens, so plain depth counting works.
 */
std::size_t
skipTemplateArgs(const std::vector<Tok> &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text == "<") {
            ++depth;
        } else if (toks[i].text == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (toks[i].text == ";") {
            return i; // Malformed; resynchronize.
        }
    }
    return i;
}

/**
 * Record container-typed declarations: `<container><<args>> [&*const]*
 * name`. Collects the declared name into @p seen with the container's
 * ordering class, for the cross-file unordered-iteration index.
 */
void
scanContainerDeclsInto(const std::vector<Tok> &toks,
                       std::map<std::string, ContainerSeen> &seen)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        const bool unordered = isUnorderedContainerName(toks[i].text);
        const bool ordered = isOrderedContainerName(toks[i].text);
        if (!unordered && !ordered)
            continue;
        if (toks[i + 1].kind != TokKind::Punct || toks[i + 1].text != "<")
            continue;
        std::size_t j = skipTemplateArgs(toks, i + 1);
        // Declarator: skip references, pointers, and cv qualifiers.
        while (j < toks.size() &&
               ((toks[j].kind == TokKind::Punct &&
                 (toks[j].text == "&" || toks[j].text == "*")) ||
                (toks[j].kind == TokKind::Ident &&
                 (toks[j].text == "const" || toks[j].text == "constexpr"))))
            ++j;
        if (j >= toks.size() || toks[j].kind != TokKind::Ident)
            continue;
        ContainerSeen &entry = seen[toks[j].text];
        entry.unordered = entry.unordered || unordered;
        entry.ordered = entry.ordered || ordered;
    }
}

/** The per-file rule driver. */
class FileLinter
{
  public:
    FileLinter(const Lexer &lex, const std::string &subject,
               DiagReport &report,
               const std::set<std::string> &unorderedNames)
        : toks_(lex.toks), subject_(subject), report_(report),
          unordered_(unorderedNames), allows_(parseInlineAllows(lex.comments)),
          scope_(scopeFor(subject))
    {
        scanLocalDecls();
        checkUnorderedIteration();
        checkPointerKeys();
        checkIdentifierRules();
        checkDigestFloats();
        checkMutexAnnotations();
        checkComments(lex.comments);
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

    bool
    isUnorderedVar(const std::string &name) const
    {
        return unordered_.count(name) != 0;
    }

    void
    checkUnorderedIteration()
    {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            // Range-for whose sequence expression names an unordered
            // container: `for (decl : expr)`.
            if (isIdent(i, "for") && isPunct(i + 1, "(")) {
                const std::size_t end = skipParens(i + 1);
                std::size_t colon = 0;
                int depth = 0;
                for (std::size_t j = i + 1; j < end; ++j) {
                    if (isPunct(j, "("))
                        ++depth;
                    else if (isPunct(j, ")"))
                        --depth;
                    else if (depth == 1 && isPunct(j, ":")) {
                        colon = j;
                        break;
                    }
                }
                for (std::size_t j = colon ? colon + 1 : end; j < end;
                     ++j) {
                    if (toks_[j].kind == TokKind::Ident &&
                        isUnorderedVar(toks_[j].text)) {
                        // Anchor at the container, not the `for`: a
                        // wrapped sequence expression keeps the inline
                        // allow on the same physical line this way.
                        finding("src-unordered-iteration", toks_[j].line,
                                detail::formatMsg(
                                    "range-for over unordered container '",
                                    toks_[j].text,
                                    "': hash order is implementation-"
                                    "defined and leaks into anything "
                                    "this loop feeds (stdout, digests, "
                                    "simulated access order); iterate "
                                    "sorted keys or an ordered mirror"));
                        break;
                    }
                }
            }
            // Iterator walk: `container.begin()` (and friends) on an
            // unordered container.
            if (toks_[i].kind == TokKind::Ident &&
                isUnorderedVar(toks_[i].text) &&
                (isPunct(i + 1, ".") || isPunct(i + 1, "->")) &&
                i + 2 < toks_.size() &&
                (toks_[i + 2].text == "begin" ||
                 toks_[i + 2].text == "cbegin") &&
                isPunct(i + 3, "(")) {
                finding("src-unordered-iteration", toks_[i].line,
                        detail::formatMsg(
                            "iterator over unordered container '",
                            toks_[i].text,
                            "' starts at an implementation-defined "
                            "position; iterate sorted keys or prove "
                            "the traversal order-independent"));
            }
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

    // ---- src-mutex-unannotated ----

    struct MemberDecl
    {
        std::string name;
        unsigned line = 0;
        bool annotated = false;
        bool syncPrimitive = false; ///< mutex / once_flag / cv / atomic.
        bool isMutex = false;
    };

    /**
     * Parse one class body starting at the `{` token index @p i;
     * returns one past the matching `}`. Member declarations are
     * recognized by this repo's trailing-underscore convention; a
     * nested class recurses so its members are checked against its own
     * mutexes, not the enclosing class's.
     */
    std::size_t
    parseClassBody(std::size_t i)
    {
        std::vector<MemberDecl> members;
        ++i; // past '{'
        std::vector<const Tok *> stmt;
        bool has_mutex = false;

        const auto flush = [&]() {
            if (!stmt.empty())
                classifyMember(stmt, members, has_mutex);
            stmt.clear();
        };

        while (i < toks_.size() && !isPunct(i, "}")) {
            // Nested class/struct definition.
            if ((isIdent(i, "class") || isIdent(i, "struct")) &&
                i + 1 < toks_.size() &&
                toks_[i + 1].kind == TokKind::Ident) {
                std::size_t j = i + 1;
                while (j < toks_.size() && !isPunct(j, "{") &&
                       !isPunct(j, ";"))
                    ++j;
                if (isPunct(j, "{")) {
                    stmt.clear();
                    i = parseClassBody(j);
                    if (isPunct(i, ";"))
                        ++i;
                    continue;
                }
            }
            // Access specifiers reset the statement.
            if ((isIdent(i, "public") || isIdent(i, "private") ||
                 isIdent(i, "protected")) &&
                isPunct(i + 1, ":")) {
                stmt.clear();
                i += 2;
                continue;
            }
            // A brace at member level is a function body or an
            // initializer: consume it whole.
            if (isPunct(i, "{")) {
                int depth = 0;
                for (; i < toks_.size(); ++i) {
                    if (isPunct(i, "{"))
                        ++depth;
                    else if (isPunct(i, "}") && --depth == 0) {
                        ++i;
                        break;
                    }
                }
                stmt.push_back(nullptr); // Marks "had a braced part".
                continue;
            }
            if (isPunct(i, ";")) {
                flush();
                ++i;
                continue;
            }
            stmt.push_back(&toks_[i]);
            ++i;
        }
        flush();

        if (has_mutex) {
            for (const MemberDecl &m : members) {
                if (m.annotated || m.syncPrimitive)
                    continue;
                finding("src-mutex-unannotated", m.line,
                        detail::formatMsg(
                            "member '", m.name,
                            "' of a mutex-holding class carries no "
                            "MEMENTO_GUARDED_BY / "
                            "MEMENTO_READONLY_AFTER_INIT annotation "
                            "(sim/thread_annotations.h); name the "
                            "synchronization that protects it"));
            }
        }
        return i < toks_.size() ? i + 1 : i;
    }

    void
    classifyMember(const std::vector<const Tok *> &stmt,
                   std::vector<MemberDecl> &members, bool &has_mutex)
    {
        // Skip type aliases, friends, and static members.
        if (stmt.front() != nullptr &&
            (stmt.front()->text == "using" ||
             stmt.front()->text == "typedef" ||
             stmt.front()->text == "friend" ||
             stmt.front()->text == "static" ||
             stmt.front()->text == "template" ||
             stmt.front()->text == "enum"))
            return;

        MemberDecl m;
        int tmpl_depth = 0;
        bool saw_paren_at_top = false;
        const Tok *last_ident_before_init = nullptr;
        bool in_init = false;
        for (const Tok *t : stmt) {
            if (t == nullptr)
                continue; // Braced segment (already consumed).
            if (t->kind == TokKind::Punct) {
                if (t->text == "<")
                    ++tmpl_depth;
                else if (t->text == ">")
                    tmpl_depth = std::max(0, tmpl_depth - 1);
                else if (t->text == "(" && tmpl_depth == 0 && !in_init)
                    saw_paren_at_top = true;
                else if (t->text == "=")
                    in_init = true;
                continue;
            }
            if (t->kind != TokKind::Ident)
                continue;
            if (t->text == "mutex" || t->text == "shared_mutex") {
                m.syncPrimitive = true;
                m.isMutex = true;
            } else if (t->text == "once_flag" ||
                       t->text == "condition_variable" ||
                       t->text == "atomic" || t->text == "atomic_flag") {
                m.syncPrimitive = true;
            } else if (t->text == "MEMENTO_GUARDED_BY" ||
                       t->text == "MEMENTO_READONLY_AFTER_INIT") {
                m.annotated = true;
            }
            if (!in_init) {
                last_ident_before_init = t;
            }
        }
        // Data members follow the repo convention `name_`; anything
        // else at member level (function declarations, constructors)
        // is not a data member. The annotation macro trails the name,
        // so exclude macro identifiers from name position.
        const Tok *name = last_ident_before_init;
        if (name == nullptr || name->text.empty() ||
            name->text.back() != '_' || name->text.front() == '_')
            return;
        if (saw_paren_at_top && !m.annotated)
            return; // Function declaration.
        m.name = name->text;
        m.line = name->line;
        if (m.isMutex)
            has_mutex = true;
        members.push_back(std::move(m));
    }

    void
    checkMutexAnnotations()
    {
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (!isIdent(i, "class") && !isIdent(i, "struct"))
                continue;
            if (i > 0 && (isIdent(i - 1, "enum") || isIdent(i - 1, "friend")))
                continue;
            if (toks_[i + 1].kind != TokKind::Ident)
                continue;
            // Definition (not a forward declaration): a `{` before the
            // next `;`.
            std::size_t j = i + 1;
            while (j < toks_.size() && !isPunct(j, "{") && !isPunct(j, ";"))
                ++j;
            if (!isPunct(j, "{"))
                continue;
            i = parseClassBody(j) - 1;
        }
    }

    // ---- src-todo-without-issue ----

    void
    checkComments(const std::vector<CommentTok> &comments)
    {
        for (const CommentTok &c : comments) {
            std::size_t at = std::string::npos;
            for (std::string_view marker : {"TODO", "FIXME", "XXX"}) {
                const std::size_t hit = c.text.find(marker);
                if (hit < at)
                    at = hit;
            }
            if (at == std::string::npos)
                continue;
            // An issue reference legitimizes the marker: `(#123)`,
            // `#123`, or `ISSUE-42` anywhere in the same comment.
            bool referenced = c.text.find("ISSUE") != std::string::npos;
            for (std::size_t h = c.text.find('#');
                 !referenced && h != std::string::npos;
                 h = c.text.find('#', h + 1)) {
                if (h + 1 < c.text.size() &&
                    std::isdigit(static_cast<unsigned char>(
                        c.text[h + 1])))
                    referenced = true;
            }
            if (!referenced) {
                finding("src-todo-without-issue", c.line,
                        "work marker without an issue reference; "
                        "anchor it as `(#NNN)` or `ISSUE-NNN` so the "
                        "debt is trackable");
            }
        }
    }

    const std::vector<Tok> &toks_;
    const std::string &subject_;
    DiagReport &report_;
    const std::set<std::string> &unordered_;
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

} // namespace

// =====================================================================
// Public API
// =====================================================================

void
lintSourceText(std::string_view text, const std::string &subject,
               DiagReport &report, SourceScan *scan)
{
    const Lexer lex(text);
    if (scan != nullptr)
        scan->includes = lex.includes;

    std::map<std::string, ContainerSeen> seen;
    scanContainerDeclsInto(lex.toks, seen);
    std::set<std::string> unordered;
    for (const auto &[name, kinds] : seen) {
        if (kinds.unordered && !kinds.ordered)
            unordered.insert(name);
    }
    FileLinter(lex, subject, report, unordered);
}

void
lintSourceFile(const std::string &path, const std::string &key,
               DiagReport &report, SourceScan *scan)
{
    if (scan != nullptr)
        scan->key = key;
    lintSourceText(readFileOrFatal(path), path, report, scan);
}

void
findIncludeCycles(const std::vector<SourceScan> &scans, DiagReport &report)
{
    // Adjacency restricted to scanned keys, neighbors sorted so the
    // traversal (and therefore the report) is deterministic.
    std::map<std::string, std::vector<std::pair<std::string, unsigned>>>
        graph;
    for (const SourceScan &s : scans)
        graph[s.key]; // Ensure every node exists.
    for (const SourceScan &s : scans) {
        for (const IncludeEdge &e : s.includes) {
            if (graph.count(e.target) != 0)
                graph[s.key].emplace_back(e.target, e.line);
        }
    }
    for (auto &[key, edges] : graph)
        std::sort(edges.begin(), edges.end());

    // Iterative Tarjan SCC over the sorted node order.
    struct NodeState
    {
        int index = -1;
        int lowlink = 0;
        bool onStack = false;
    };
    std::map<std::string, NodeState> state;
    std::vector<std::string> stack;
    std::vector<std::vector<std::string>> cycles;
    int next_index = 0;

    struct Frame
    {
        std::string node;
        std::size_t edge = 0;
    };
    for (const auto &[root, unused_] : graph) {
        (void)unused_;
        if (state[root].index != -1)
            continue;
        std::vector<Frame> dfs;
        dfs.push_back({root, 0});
        state[root].index = state[root].lowlink = next_index++;
        state[root].onStack = true;
        stack.push_back(root);
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            const auto &edges = graph[f.node];
            if (f.edge < edges.size()) {
                const std::string &next = edges[f.edge++].first;
                NodeState &ns = state[next];
                if (ns.index == -1) {
                    ns.index = ns.lowlink = next_index++;
                    ns.onStack = true;
                    stack.push_back(next);
                    dfs.push_back({next, 0});
                } else if (ns.onStack) {
                    state[f.node].lowlink =
                        std::min(state[f.node].lowlink, ns.index);
                }
                continue;
            }
            // Node finished: pop an SCC if this is its root.
            NodeState &fs = state[f.node];
            if (fs.lowlink == fs.index) {
                std::vector<std::string> scc;
                while (true) {
                    const std::string top = stack.back();
                    stack.pop_back();
                    state[top].onStack = false;
                    scc.push_back(top);
                    if (top == f.node)
                        break;
                }
                bool self_loop = false;
                for (const auto &[to, line] : graph[f.node]) {
                    (void)line;
                    self_loop = self_loop || to == f.node;
                }
                if (scc.size() > 1 || self_loop)
                    cycles.push_back(std::move(scc));
            }
            const std::string done = f.node;
            dfs.pop_back();
            if (!dfs.empty()) {
                NodeState &parent = state[dfs.back().node];
                parent.lowlink =
                    std::min(parent.lowlink, state[done].lowlink);
            }
        }
    }

    // One finding per cycle, anchored at its smallest member's edge
    // into the cycle, members listed sorted.
    for (std::vector<std::string> &scc : cycles)
        std::sort(scc.begin(), scc.end());
    std::sort(cycles.begin(), cycles.end());
    for (const std::vector<std::string> &scc : cycles) {
        const std::string &anchor = scc.front();
        std::uint64_t line = Diag::kNoLocation;
        for (const auto &[to, at] : graph[anchor]) {
            if (std::find(scc.begin(), scc.end(), to) != scc.end()) {
                line = at;
                break;
            }
        }
        std::ostringstream members;
        for (std::size_t i = 0; i < scc.size(); ++i)
            members << (i == 0 ? "" : " <-> ") << scc[i];
        report.add("src-include-cycle", anchor, line,
                   detail::formatMsg(
                       "include cycle among ", scc.size(),
                       " file(s): ", members.str(),
                       "; break the cycle with a forward declaration "
                       "or an interface split"));
    }
}

std::vector<std::pair<std::string, std::string>>
collectSourceFiles(const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string &arg : paths) {
        std::error_code ec;
        const fs::path root(arg);
        if (fs::is_regular_file(root, ec)) {
            files.emplace_back(root.generic_string(),
                               root.filename().generic_string());
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
            files.emplace_back(
                it->path().generic_string(),
                it->path().lexically_relative(root).generic_string());
        }
        fatal_if(static_cast<bool>(ec), "lint-src: cannot walk ", arg,
                 ": ", ec.message());
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::size_t
lintSourcePaths(const std::vector<std::string> &paths, unsigned jobs,
                DiagReport &report)
{
    const auto files = collectSourceFiles(paths);

    // Phase 1: tokenize every file and index container declarations,
    // so a .cc iterating a member its header declared still resolves
    // the container's ordering class. A name is treated as unordered
    // only when *no* scanned declaration of it is ordered — an
    // ambiguous name never fires (lexical scoping is out of budget
    // for a lint pass; missing a finding beats inventing one).
    std::vector<std::string> texts(files.size());
    std::vector<std::map<std::string, ContainerSeen>> decls(files.size());
    parallelFor(files.size(), jobs, [&](std::size_t i) {
        texts[i] = readFileOrFatal(files[i].first);
        const Lexer lex(texts[i]);
        scanContainerDeclsInto(lex.toks, decls[i]);
    });
    std::map<std::string, ContainerSeen> merged;
    for (const auto &d : decls) {
        for (const auto &[name, kinds] : d) {
            ContainerSeen &entry = merged[name];
            entry.unordered = entry.unordered || kinds.unordered;
            entry.ordered = entry.ordered || kinds.ordered;
        }
    }
    std::set<std::string> unordered;
    for (const auto &[name, kinds] : merged) {
        if (kinds.unordered && !kinds.ordered)
            unordered.insert(name);
    }

    // Phase 2: lint each file against the merged index; slots merge in
    // sorted path order, so output is byte-identical at any --jobs.
    std::vector<DiagReport> slots(files.size());
    std::vector<SourceScan> scans(files.size());
    parallelFor(files.size(), jobs, [&](std::size_t i) {
        scans[i].key = files[i].second;
        const Lexer lex(texts[i]);
        scans[i].includes = lex.includes;
        FileLinter(lex, files[i].first, slots[i], unordered);
    });
    for (const DiagReport &slot : slots)
        report.append(slot);

    // Phase 3: cross-file include-cycle pass (deterministic order).
    findIncludeCycles(scans, report);
    return files.size();
}

} // namespace memento
