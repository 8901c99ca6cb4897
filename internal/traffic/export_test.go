package traffic

// TickProbe lets external tests watch every token tick (tickProbe).
var TickProbe = &tickProbe
