package domino

// ScribbleRecycled lets this package's external tests set scribbleRecycled.
var ScribbleRecycled = &scribbleRecycled
