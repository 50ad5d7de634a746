package urlutil

import "strings"

// DefaultTargetMIMEs is the full list of 38 MIME types that identify targets
// (statistics-dataset files) in the paper's implementation, reproduced from
// Appendix A.2 of the extended version.
var DefaultTargetMIMEs = []string{
	"application/csv",
	"application/json",
	"application/msword",
	"application/octet-stream",
	"application/pdf",
	"application/rdf+xml",
	"application/rss+xml",
	"application/vnd.ms-excel",
	"application/vnd.ms-excel.sheet.macroenabled.12",
	"application/vnd.oasis.opendocument.presentation",
	"application/vnd.oasis.opendocument.spreadsheet",
	"application/vnd.oasis.opendocument.text",
	"application/vnd.openxmlformats-officedocument.presentationml.presentation",
	"application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
	"application/vnd.openxmlformats-officedocument.wordprocessingml.document",
	"application/vnd.openxmlformats-officedocument.wordprocessingml.template",
	"application/vnd.rar",
	"application/x-7z-compressed",
	"application/x-csv",
	"application/x-gtar",
	"application/x-gzip",
	"application/xml",
	"application/x-pdf",
	"application/x-rar-compressed",
	"application/x-tar",
	"application/x-yaml",
	"application/x-zip-compressed",
	"application/yaml",
	"application/zip",
	"application/zip-compressed",
	"text/comma-separated-values",
	"text/csv",
	"text/json",
	"text/plain",
	"text/x-comma-separated-values",
	"text/x-csv",
	"text/x-yaml",
	"text/yaml",
}

// MIMESet is a set of canonical MIME types. Lookups ignore parameters such
// as "; charset=utf-8" and are case-insensitive. A set is read-only once
// built, so any number of crawls may share one: the engine hands the same
// default set to every crawl that names no target list.
type MIMESet map[string]struct{}

// NewMIMESet builds a MIMESet from a list of MIME types.
func NewMIMESet(types []string) MIMESet {
	s := make(MIMESet, len(types))
	for _, t := range types {
		s[CanonicalMIME(t)] = struct{}{}
	}
	return s
}

// DefaultTargetSet returns the MIMESet of DefaultTargetMIMEs.
func DefaultTargetSet() MIMESet { return NewMIMESet(DefaultTargetMIMEs) }

// Contains reports whether the (possibly parameterized) MIME type belongs to
// the set.
func (s MIMESet) Contains(mime string) bool {
	_, ok := s[CanonicalMIME(mime)]
	return ok
}

// CanonicalMIME lowercases a MIME type and strips parameters.
func CanonicalMIME(mime string) string {
	if i := strings.IndexByte(mime, ';'); i >= 0 {
		mime = mime[:i]
	}
	return strings.ToLower(strings.TrimSpace(mime))
}

// IsHTML reports whether the MIME type designates an HTML page, per
// Algorithm 4's `"HTML" ⊂ mime_type` test.
func IsHTML(mime string) bool {
	m := CanonicalMIME(mime)
	return m == "text/html" || m == "application/xhtml+xml"
}

// IsBlockedMIME reports whether the MIME type falls in the multimedia
// blocklist used by the experiments (image/*, audio/*, video/*); downloads
// of such responses are interrupted (Sec. 3.4).
func IsBlockedMIME(mime string) bool {
	m := CanonicalMIME(mime)
	return strings.HasPrefix(m, "image/") ||
		strings.HasPrefix(m, "audio/") ||
		strings.HasPrefix(m, "video/")
}

// BlockedExtensions is the multimedia URL-extension blocklist from Appendix
// B.3 of the extended version. Links whose URL extension appears here are
// never classified nor enqueued.
var BlockedExtensions = map[string]struct{}{
	".3g2": {}, ".3ga": {}, ".3gp2": {}, ".3gp": {}, ".3gpa": {}, ".3gpp2": {},
	".3gpp": {}, ".aac": {}, ".aacp": {}, ".adp": {}, ".aff": {}, ".aif": {},
	".aiff": {}, ".arw": {}, ".asf": {}, ".asx": {}, ".avi": {}, ".avif": {},
	".avifs": {}, ".bmp": {}, ".btif": {}, ".cgm": {}, ".cmx": {}, ".cr2": {},
	".crw": {}, ".dcr": {}, ".djv": {}, ".djvu": {}, ".dng": {}, ".dts": {},
	".dtshd": {}, ".dwg": {}, ".dxf": {}, ".ecelp4800": {}, ".ecelp7470": {},
	".ecelp9600": {}, ".eol": {}, ".erf": {}, ".f4v": {}, ".fbs": {}, ".fh4": {},
	".fh5": {}, ".fh7": {}, ".fh": {}, ".fhc": {}, ".flac": {}, ".fli": {},
	".flv": {}, ".fpx": {}, ".fst": {}, ".fvt": {}, ".g3": {}, ".gif": {},
	".h261": {}, ".h263": {}, ".h264": {}, ".heic": {}, ".heif": {}, ".icns": {},
	".ico": {}, ".ief": {}, ".jfi": {}, ".jfif-tbnl": {}, ".jfif": {}, ".jif": {},
	".jpe": {}, ".jpeg": {}, ".jpg": {}, ".jpgm": {}, ".jpgv": {}, ".jpm": {},
	".k25": {}, ".kar": {}, ".kdc": {}, ".lvp": {}, ".m1v": {}, ".m2a": {},
	".m2v": {}, ".m3a": {}, ".m3u": {}, ".m4a": {}, ".m4b": {}, ".m4p": {},
	".m4r": {}, ".m4u": {}, ".m4v": {}, ".mdi": {}, ".mid": {}, ".midi": {},
	".mj2": {}, ".mjp2": {}, ".mka": {}, ".mkv": {}, ".mmr": {}, ".mov": {},
	".movie": {}, ".mp2": {}, ".mp2a": {}, ".mp3": {}, ".mp4": {}, ".mp4v": {},
	".mpa": {}, ".mpe": {}, ".mpeg": {}, ".mpg4": {}, ".mpg": {}, ".mpga": {},
	".mrw": {}, ".mxu": {}, ".nef": {}, ".npx": {}, ".oga": {}, ".ogg": {},
	".ogv": {}, ".opus": {}, ".orf": {}, ".pbm": {}, ".pct": {}, ".pcx": {},
	".pef": {}, ".pgm": {}, ".pic": {}, ".pjpg": {}, ".png": {}, ".pnm": {},
	".ppm": {}, ".psd": {}, ".ptx": {}, ".pya": {}, ".pyv": {}, ".qt": {},
	".ra": {}, ".raf": {}, ".ram": {}, ".ras": {}, ".raw": {}, ".rgb": {},
	".rlc": {}, ".rmi": {}, ".rmp": {}, ".rw2": {}, ".rwl": {}, ".snd": {},
	".spx": {}, ".sr2": {}, ".srf": {}, ".svg": {}, ".svgz": {}, ".tif": {},
	".tiff": {}, ".ts": {}, ".viv": {}, ".wav": {}, ".wax": {}, ".wbmp": {},
	".weba": {}, ".webm": {}, ".webp": {}, ".wm": {}, ".wma": {}, ".wmv": {},
	".wmx": {}, ".wvx": {}, ".x3f": {}, ".xbm": {}, ".xif": {}, ".xpm": {},
	".xwd": {},
}

// HasBlockedExtension reports whether the URL's extension is on the
// multimedia blocklist.
func HasBlockedExtension(raw string) bool {
	p, _ := split(raw)
	return blockedPath(p.path)
}

func blockedPath(p string) bool {
	_, ok := BlockedExtensions[pathExtension(p)]
	return ok
}
