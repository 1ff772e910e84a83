#include "genome/fasta.hpp"

#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace sf::genome {

void
writeFasta(std::ostream &os, const std::vector<Genome> &genomes,
           std::size_t width)
{
    if (width == 0)
        fatal("FASTA line width must be positive");
    for (const auto &genome : genomes) {
        os << '>' << genome.name() << '\n';
        const std::string seq = genome.toString();
        for (std::size_t i = 0; i < seq.size(); i += width)
            os << seq.substr(i, width) << '\n';
    }
}

void
writeFastaFile(const std::string &path, const Genome &genome)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeFasta(os, {genome});
}

std::vector<Genome>
readFasta(std::istream &is)
{
    std::vector<Genome> out;
    std::string name;
    std::vector<Base> bases;
    std::size_t skipped = 0;

    auto flush = [&]() {
        if (!name.empty())
            out.emplace_back(name, std::move(bases));
        bases = {};
    };

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line.front() == '>') {
            flush();
            name = line.substr(1);
            // Trim description after first whitespace.
            const auto space = name.find_first_of(" \t");
            if (space != std::string::npos)
                name.resize(space);
            if (name.empty())
                fatal("FASTA line %zu: header has no sequence name",
                      lineno);
        } else {
            if (name.empty())
                fatal("FASTA line %zu: sequence before the first '>' "
                      "header", lineno);
            for (char c : line) {
                Base b;
                if (charToBase(c, b))
                    bases.push_back(b);
                else
                    ++skipped;
            }
        }
    }
    flush();
    if (skipped > 0)
        warn("FASTA parse skipped %zu ambiguous characters", skipped);
    return out;
}

std::vector<Genome>
readFastaFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    return readFasta(is);
}

} // namespace sf::genome
