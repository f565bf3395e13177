/**
 * @file
 * Text rendering helpers shared by the CLI and the figure registry
 * (an/figures.h): fixed-width tables and ASCII bars, so each figure
 * prints rows directly comparable to the paper's.
 */

#ifndef MEMENTO_AN_REPORT_H
#define MEMENTO_AN_REPORT_H

#include <ostream>
#include <string>
#include <vector>

namespace memento {

/** Builds and prints a fixed-width text table. */
class TextTable
{
  public:
    /** @param headers Column titles (define the column count). */
    explicit TextTable(std::vector<std::string> headers);

    /** Start a new row; fill it with cell() calls. */
    void newRow();
    void cell(const std::string &value);
    void cell(double value, int precision = 2);
    void cell(std::uint64_t value);
    /** Append a whole row of already-formatted cells. */
    void row(std::vector<std::string> cells);

    /** Render with column alignment and a header separator. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p value with @p precision fixed decimals, like "1.163". */
std::string fixedStr(double value, int precision = 2);

/** Format @p fraction as a percentage string like "16.3%". */
std::string percentStr(double fraction, int precision = 1);

/** An ASCII bar of @p fraction (0..1) scaled to @p width chars. */
std::string asciiBar(double fraction, unsigned width = 40);

} // namespace memento

#endif // MEMENTO_AN_REPORT_H
