#include "core/artifact.hpp"

#include <fstream>

namespace altis {

bool write_artifact(const std::string& path, std::string_view label,
                    const std::function<void(std::ostream&)>& body,
                    std::ostream& out, std::ostream& err,
                    std::string_view success) {
    std::ofstream f(path);
    if (!f) {
        err << label << ": cannot open " << path << " for writing\n";
        return false;
    }
    body(f);
    f.close();  // flushes; a full device fails here at the latest
    if (!f) {
        err << label << ": failed writing " << path << "\n";
        return false;
    }
    out << success;
    return true;
}

}  // namespace altis
