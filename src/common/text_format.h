/**
 * @file
 * Locale-independent text formatting/parsing primitives shared by every
 * serializer (schedule CSV, DEM/noise-profile/circuit artifacts, bench
 * JSON). Three disciplines live here:
 *
 *  - exact doubles: `ExactDouble` / `AppendExactDouble` emit the shortest
 *    decimal form that parses back to the identical double
 *    (std::to_chars), which is what makes serialize -> parse ->
 *    re-serialize byte-stable;
 *  - strict line handling: `StripCr` tolerates CRLF input (git autocrlf
 *    / Windows checkouts) and `SplitFields` preserves empty fields so a
 *    short or trailing-empty row is an explicit error, never a silent
 *    truncation;
 *  - one allocation-free scanner: `LineCursor` walks a text as views
 *    (the lines a getline + StripCr loop would yield, uncopied),
 *    `SplitFields` splits a view into a reused buffer of views, and a
 *    parse error's `Context` ("edge 17") is formatted only when the
 *    error is thrown.
 *
 * Everything routes through std::to_chars / std::from_chars, which are
 * locale-independent by specification — snprintf("%g") is not: under a
 * comma-decimal locale it emits "1,5" and corrupts every downstream
 * parser.
 */
#ifndef TIQEC_COMMON_TEXT_FORMAT_H
#define TIQEC_COMMON_TEXT_FORMAT_H

#include <array>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace tiqec::text {

/** Appends the shortest exact decimal form of `value` (see
 *  `ExactDouble`) to `out` without a temporary string. */
inline void
AppendExactDouble(std::string& out, double value)
{
    std::array<char, 32> buf{};
    const auto [ptr, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), value);
    if (ec != std::errc()) {
        throw std::invalid_argument("ExactDouble: value does not format");
    }
    out.append(buf.data(), ptr);
}

/** Shortest exact decimal form: parsing it back yields the identical
 *  double (round-trip guarantee), and the output never depends on the
 *  process locale. */
inline std::string
ExactDouble(double value)
{
    std::string out;
    AppendExactDouble(out, value);
    return out;
}

/** Appends the decimal form of `value` (what std::to_string writes) to
 *  `out` without a temporary string. */
inline void
AppendInt(std::string& out, std::int64_t value)
{
    std::array<char, 24> buf{};
    const auto [ptr, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), value);
    (void)ec;  // 24 chars hold every int64
    out.append(buf.data(), ptr);
}

/**
 * Where a parse error happened: a label ("counts"), a label and an
 * element index ("edge 17"), or a prefix and a quoted text ("line: " +
 * the row). It only points at its parts, so building one per line costs
 * nothing; the text is formatted by `str()` on the throwing path alone.
 * The parts must outlive the context (a temporary std::string lives
 * until the end of the call it is passed to).
 */
class Context
{
  public:
    Context(const char* label) : label_(label) {}
    Context(const std::string& label) : label_(label) {}
    Context(std::string_view label, std::int64_t index)
        : label_(label), index_(index)
    {
    }
    Context(std::string_view prefix, std::string_view text)
        : label_(prefix), text_(text)
    {
    }

    std::string
    str() const
    {
        std::string out(label_);
        if (index_ >= 0) {
            out += ' ';
            AppendInt(out, index_);
        }
        out += text_;
        return out;
    }

  private:
    std::string_view label_;
    std::int64_t index_ = -1;
    std::string_view text_;
};

/** Parses a double written by `ExactDouble` (or any plain decimal /
 *  scientific literal). The whole field must be consumed. */
inline double
ParseDouble(std::string_view field, const Context& context)
{
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc() || ptr != field.data() + field.size()) {
        throw std::invalid_argument("bad number '" + std::string(field) +
                                    "' in " + context.str());
    }
    return value;
}

/** The value of a field of 1 to 9 decimal digits, or -1 for any other
 *  field: the common case of `ParseInt32`/`ParseInt64`, which agrees with
 *  std::from_chars wherever it applies and leaves the rest to it. */
inline std::int32_t
SmallDecimal(std::string_view field)
{
    if (field.empty() || field.size() > 9) {
        return -1;
    }
    std::int32_t value = 0;
    for (const char c : field) {
        const unsigned digit = static_cast<unsigned char>(c) - '0';
        if (digit > 9) {
            return -1;
        }
        value = value * 10 + static_cast<std::int32_t>(digit);
    }
    return value;
}

/** Parses a 32-bit integer; the whole field must be consumed. */
inline std::int32_t
ParseInt32(std::string_view field, const Context& context)
{
    std::int32_t value = SmallDecimal(field);
    if (value >= 0) {
        return value;
    }
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc() || ptr != field.data() + field.size()) {
        throw std::invalid_argument("bad integer '" + std::string(field) +
                                    "' in " + context.str());
    }
    return value;
}

/** Parses a 64-bit integer; the whole field must be consumed. */
inline std::int64_t
ParseInt64(std::string_view field, const Context& context)
{
    const std::int32_t small = SmallDecimal(field);
    if (small >= 0) {
        return small;
    }
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc() || ptr != field.data() + field.size()) {
        throw std::invalid_argument("bad integer '" + std::string(field) +
                                    "' in " + context.str());
    }
    return value;
}

/** Drops one trailing '\r' (CRLF input read by LF-splitting getline). */
inline void
StripCr(std::string& line)
{
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
}

/** `StripCr` on a view. */
inline std::string_view
StripCr(std::string_view line)
{
    if (!line.empty() && line.back() == '\r') {
        line.remove_suffix(1);
    }
    return line;
}

/** "<what>: '<line>'" — the error text for a rejected line. */
inline std::string
Quoted(std::string_view what, std::string_view line)
{
    std::string out(what);
    out += ": '";
    out += line;
    out += '\'';
    return out;
}

/**
 * Zero-copy line cursor: `Next` yields exactly the lines a
 * `std::getline` + `StripCr` loop over the same text yields — split on
 * '\n', one trailing '\r' dropped, a final unterminated line included,
 * nothing after a final '\n' — as views into the text, which must
 * outlive the cursor.
 */
class LineCursor
{
  public:
    explicit LineCursor(std::string_view text) : text_(text) {}

    bool
    Next(std::string_view* line)
    {
        if (pos_ >= text_.size()) {
            return false;
        }
        size_t end = text_.find('\n', pos_);
        if (end == std::string_view::npos) {
            end = text_.size();
        }
        *line = StripCr(text_.substr(pos_, end - pos_));
        pos_ = end + 1;
        return true;
    }

    /** Offset of the first byte not yet consumed (clamped to the text). */
    size_t
    position() const
    {
        return pos_ < text_.size() ? pos_ : text_.size();
    }

  private:
    std::string_view text_;
    size_t pos_ = 0;
};

/**
 * Splits on `delim` into `*fields` (cleared first, its capacity reused),
 * preserving empty fields — "a,b," yields {"a","b",""} where a
 * getline(',') loop would silently drop the trailing empty field and
 * turn a malformed row into a miscounted one. The views alias `line`.
 */
inline void
SplitFields(std::string_view line, char delim,
            std::vector<std::string_view>* fields)
{
    // A plain byte loop: fields are a few characters long, where a
    // find() call per field costs more than the scan itself.
    fields->clear();
    const char* begin = line.data();
    const char* const end = begin + line.size();
    for (const char* p = begin; p != end; ++p) {
        if (*p == delim) {
            fields->emplace_back(begin, static_cast<size_t>(p - begin));
            begin = p + 1;
        }
    }
    fields->emplace_back(begin, static_cast<size_t>(end - begin));
}

}  // namespace tiqec::text

#endif  // TIQEC_COMMON_TEXT_FORMAT_H
